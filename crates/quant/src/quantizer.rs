//! Uniform symmetric quantization primitives.
//!
//! This module implements the quantization function from §II-C of the paper:
//!
//! ```text
//! s = x_max / (2^(b-1) - 1);    x_q = round(x_f / s)
//! ```
//!
//! and its inverse (dequantization by multiplying with `s`). All other
//! schemes in the crate build on these primitives.
//!
//! # Definition and runtime primitive
//!
//! [`quantize_value`] / [`quantize_value_saturating`] are the **definition**
//! of a code: one true division, `f32::round` (half away from zero), a
//! saturating cast and a clamp. Prepare-time code, the baselines and the
//! reference walks (the checked `i64` loop, the explicit kernel) call them
//! element by element.
//!
//! [`quantize_row`] is the **runtime** form of the same function: the one
//! row quantizer under the three places that quantize while a model runs
//! (Tender activations, KV-cache appends, the attention operands of the
//! integer KV read). It computes bit for bit what the definition computes —
//! code and saturation flag, for every `f32` input including NaN, ±∞ and
//! subnormals — but without the libm call (`f32::round` is `roundf` on
//! baseline x86-64) and without a data-dependent branch, over fixed-width
//! chunks of [`QUANT_LANES`] elements, so the loop lowers to packed
//! divides, selects and integer adds. See [`quantize_row`] for the argument
//! and `tests::` for the sweep that checks it against the definition.

use tender_tensor::{IMatrix, Matrix};

/// Largest representable magnitude at bit width `bits`:
/// `2^(b-1) - 1` (127 for INT8, 7 for INT4).
///
/// # Panics
///
/// Panics if `bits` is outside `2..=31`.
///
/// # Example
///
/// ```
/// assert_eq!(tender_quant::qmax(8), 127);
/// assert_eq!(tender_quant::qmax(4), 7);
/// ```
pub fn qmax(bits: u32) -> i32 {
    assert!((2..=31).contains(&bits), "unsupported bit width {bits}");
    (1 << (bits - 1)) - 1
}

/// Symmetric scale factor for a value range with absolute maximum `abs_max`
/// at bit width `bits`.
///
/// Returns a tiny positive scale for an all-zero range so that division by
/// the scale is always defined.
pub fn symmetric_scale(abs_max: f32, bits: u32) -> f32 {
    let k = qmax(bits) as f32;
    if abs_max <= 0.0 || !abs_max.is_finite() {
        return f32::MIN_POSITIVE / f32::EPSILON; // tiny but safely non-zero
    }
    abs_max / k
}

/// Quantizes a single value: `clamp(round(x / scale))` to the signed range
/// of `bits`.
pub fn quantize_value(x: f32, scale: f32, bits: u32) -> i32 {
    let k = qmax(bits);
    let q = (x / scale).round();
    // f32 → i32 with saturation; NaN maps to 0 per Rust `as` semantics.
    (q as i32).clamp(-k, k)
}

/// Quantizes a single value and reports whether it **saturated** — i.e. the
/// rounded value fell outside `[-qmax, qmax]` and the clamp changed it.
///
/// The decomposed kernels use this to count saturation events (hardware
/// clipping) without a second comparison pass; for in-range values the
/// result is identical to [`quantize_value`].
pub fn quantize_value_saturating(x: f32, scale: f32, bits: u32) -> (i32, bool) {
    let k = qmax(bits);
    let q = (x / scale).round();
    // Compare in f32 so out-of-i32-range values register as saturated
    // instead of relying on the `as` cast's clipping alone.
    let saturated = q > k as f32 || q < -k as f32;
    ((q as i32).clamp(-k, k), saturated)
}

/// Elements per chunk of [`quantize_row`]'s main loop: two SSE registers,
/// one AVX register.
pub const QUANT_LANES: usize = 8;

/// Widest bit width the branch-free lane is exact for: its argument needs
/// `qmax + 1 < 2^22` (see [`quantize_row`]). Wider rows run the scalar
/// definition per element.
const LANE_MAX_BITS: u32 = 22;

/// `1.5 · 2^23`: adding it to a float of magnitude at most `2^22` leaves a
/// sum in `[2^23, 2^24]`, where consecutive floats are one apart — the add
/// itself rounds to the nearest integer (ties to even), and the integer is
/// the sum's bit pattern minus this constant's.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// One lane of [`quantize_row`]: the code and the saturation flag (0 or 1)
/// of the quotient `v = x / scale`, for `k = qmax(bits)` and
/// `lim = (k + 1) as f32` with `bits <= LANE_MAX_BITS`. Equal to
/// [`quantize_value_saturating`] for every `v`.
#[inline(always)]
fn quantize_lane(v: f32, lim: f32, k: i32) -> (i32, i32) {
    // Clamp to ±(k + 1): rounding is monotone, so the clamped value rounds
    // outside [-k, k] exactly when `v` does, and everything further out
    // (±∞ included) saturates the same way. Both comparisons are false for
    // NaN, which passes through and becomes 0 — the definition's
    // `NaN as i32`, unsaturated.
    let c = if v > lim { lim } else { v };
    let c = if c < -lim { -lim } else { c };
    let c = if c.is_nan() { 0.0 } else { c };
    let sum = c + ROUND_MAGIC;
    let nearest_even = sum.to_bits() as i32 - ROUND_MAGIC.to_bits() as i32;
    // `f32::round` sends ties away from zero. The signed distance to the
    // integer chosen above is exact, and the two ties the even rule sends
    // toward zero are the ones to move one step out.
    let d = c - (sum - ROUND_MAGIC);
    let r = nearest_even + ((d == 0.5) & (c > 0.0)) as i32 - ((d == -0.5) & (c < 0.0)) as i32;
    // |r| ≤ k + 1, so the clamp to ±k is one step back in.
    let over = (r > k) as i32;
    let under = (r < -k) as i32;
    (r - over + under, over + under)
}

/// An operand of [`quantize_row`]: one value per element (`&[f32]`) or one
/// for the whole row (`f32`).
pub trait RowOperand: Copy {
    /// Panics unless the operand covers a row of `n` elements.
    fn check_len(self, n: usize);
    /// The values for elements `chunk · QUANT_LANES ..` of a whole chunk.
    fn lanes(self, chunk: usize) -> [f32; QUANT_LANES];
    /// The value for element `i`.
    fn at(self, i: usize) -> f32;
}

impl RowOperand for f32 {
    fn check_len(self, _n: usize) {}

    #[inline(always)]
    fn lanes(self, _chunk: usize) -> [f32; QUANT_LANES] {
        [self; QUANT_LANES]
    }

    #[inline(always)]
    fn at(self, _i: usize) -> f32 {
        self
    }
}

impl RowOperand for &[f32] {
    fn check_len(self, n: usize) {
        assert_eq!(self.len(), n, "row operand length mismatch");
    }

    #[inline(always)]
    fn lanes(self, chunk: usize) -> [f32; QUANT_LANES] {
        self[chunk * QUANT_LANES..][..QUANT_LANES]
            .try_into()
            .expect("a whole chunk")
    }

    #[inline(always)]
    fn at(self, i: usize) -> f32 {
        self[i]
    }
}

/// The runtime row quantizer:
/// `out[i] = quantize_value_saturating(x[i] − bias[i], scale[i], bits).0`,
/// returning how many elements saturated. `bias` and `scale` are each one
/// value per element or one for the row ([`RowOperand`]; a bias of `0.0`
/// is no bias — `x − 0.0` is `x` for every `f32`).
///
/// **Exact.** Every element gets the code and the saturation flag the
/// scalar definition gives it: the same subtraction and the same true
/// division produce the same quotient `v` (a multiply by `1/scale` would
/// round differently), and from there the lane differs only in *how* it
/// rounds. It clamps `v` to `±(qmax + 1)`, lets a float add round to the
/// nearest integer (ties to even), reads that integer out of the sum's bit
/// pattern, and moves the two tie cases the even rule sends toward zero one
/// step out, which is round-half-away-from-zero. The argument needs
/// `qmax + 1 < 2^22`, i.e. `bits ≤ 22`; wider rows run the definition per
/// element, so the result never depends on the width. The unit tests sweep
/// the `f32` bit patterns against the definition.
///
/// **Why.** `f32::round` is a call into libm's `roundf` on baseline x86-64
/// and Rust's saturating `as i32` stays on scalar `cvttss2si`; either keeps
/// a quantizing loop scalar. The lane body has no call and no
/// data-dependent branch, and the main loop runs over fixed chunks of
/// [`QUANT_LANES`] elements with a per-lane saturation bank summed after
/// it, which is the shape the vectorizer turns into packed instructions
/// (`divps`, `minps`/`maxps`, `paddd` on SSE2).
///
/// # Panics
///
/// Panics if `out`, or a per-element `bias` or `scale`, is not `x.len()`
/// long, or `bits` is outside `2..=31`.
pub fn quantize_row<B: RowOperand, S: RowOperand>(
    x: &[f32],
    bias: B,
    scale: S,
    bits: u32,
    out: &mut [i32],
) -> usize {
    assert_eq!(x.len(), out.len(), "code row length mismatch");
    bias.check_len(x.len());
    scale.check_len(x.len());
    let k = qmax(bits);
    if bits > LANE_MAX_BITS {
        let mut saturated = 0;
        for (i, (o, &x)) in out.iter_mut().zip(x).enumerate() {
            let (q, sat) = quantize_value_saturating(x - bias.at(i), scale.at(i), bits);
            *o = q;
            saturated += sat as usize;
        }
        return saturated;
    }
    let lim = (k + 1) as f32;
    let (x_chunks, x_tail) = x.as_chunks::<QUANT_LANES>();
    let (out_chunks, out_tail) = out.as_chunks_mut::<QUANT_LANES>();
    let mut bank = [0_i32; QUANT_LANES];
    for (chunk, (x, o)) in x_chunks.iter().zip(out_chunks).enumerate() {
        let (b, s) = (bias.lanes(chunk), scale.lanes(chunk));
        for l in 0..QUANT_LANES {
            let (q, sat) = quantize_lane((x[l] - b[l]) / s[l], lim, k);
            o[l] = q;
            bank[l] += sat;
        }
    }
    let mut saturated: usize = bank.iter().map(|&n| n as usize).sum();
    let tail0 = x.len() - x_tail.len();
    for (i, (o, &x)) in out_tail.iter_mut().zip(x_tail).enumerate() {
        let i = tail0 + i;
        let (q, sat) = quantize_lane((x - bias.at(i)) / scale.at(i), lim, k);
        *o = q;
        saturated += sat as usize;
    }
    saturated
}

/// Dequantizes a single value.
pub fn dequantize(q: i32, scale: f32) -> f32 {
    q as f32 * scale
}

/// Quantizes a whole matrix with a single scale factor.
pub fn quantize_matrix(m: &Matrix, scale: f32, bits: u32) -> IMatrix {
    m.map_into(|x| quantize_value(x, scale, bits))
}

/// Fake-quantization: quantize and immediately dequantize, returning the
/// value the integer pipeline would effectively compute with.
pub fn fake_quantize(m: &Matrix, scale: f32, bits: u32) -> Matrix {
    m.map(|x| dequantize(quantize_value(x, scale, bits), scale))
}

/// Rounds every element through IEEE 754 half precision (FP16).
///
/// The paper's baseline is FP16 inference; routing reference computations
/// through this keeps the "FP16 base" rows honest about half-precision
/// rounding.
pub fn round_to_f16(m: &Matrix) -> Matrix {
    m.map(f16_round)
}

/// Rounds a single `f32` to the nearest representable FP16 value
/// (round-to-nearest-even), saturating to ±65504 and preserving NaN.
pub fn f16_round(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    const F16_MAX: f32 = 65504.0;
    if x.abs() > F16_MAX {
        return F16_MAX.copysign(x);
    }
    let bits = x.to_bits();
    let sign = bits & 0x8000_0000;
    let exp = ((bits >> 23) & 0xFF) as i32 - 127;
    if exp < -24 {
        // Below half subnormal range → ±0.
        return f32::from_bits(sign);
    }
    if exp < -14 {
        // Half subnormal: quantize mantissa to a multiple of 2^-24.
        let step = 2.0_f32.powi(-24);
        return (x / step).round() * step;
    }
    // Normal range: keep 10 mantissa bits with round-to-nearest-even.
    let mant_shift = 13; // 23 - 10
    let lsb = 1_u32 << mant_shift;
    let halfway = lsb >> 1;
    let mant = bits & 0x007F_FFFF;
    let rounded = {
        let down = bits & !(lsb - 1);
        let rem = mant & (lsb - 1);
        if rem > halfway || (rem == halfway && (down >> mant_shift) & 1 == 1) {
            down + lsb
        } else {
            down
        }
    };
    let y = f32::from_bits(rounded);
    if y.abs() > F16_MAX {
        F16_MAX.copysign(x)
    } else {
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qmax_known_values() {
        assert_eq!(qmax(8), 127);
        assert_eq!(qmax(4), 7);
        assert_eq!(qmax(2), 1);
        assert_eq!(qmax(16), 32767);
    }

    #[test]
    #[should_panic(expected = "unsupported bit width")]
    fn qmax_rejects_one_bit() {
        let _ = qmax(1);
    }

    #[test]
    fn scale_maps_absmax_to_qmax() {
        let s = symmetric_scale(12.7, 8);
        assert_eq!(quantize_value(12.7, s, 8), 127);
        assert_eq!(quantize_value(-12.7, s, 8), -127);
    }

    #[test]
    fn zero_range_scale_is_positive() {
        let s = symmetric_scale(0.0, 8);
        assert!(s > 0.0);
        assert_eq!(quantize_value(0.0, s, 8), 0);
    }

    #[test]
    fn quantize_clamps_out_of_range() {
        let s = symmetric_scale(1.0, 4);
        assert_eq!(quantize_value(100.0, s, 4), 7);
        assert_eq!(quantize_value(-100.0, s, 4), -7);
    }

    /// The scales of the definition sweep: unit, awkward mantissas either
    /// side of one, a power of two, and [`symmetric_scale`]'s zero-range
    /// guard value.
    const SWEEP_SCALES: [f32; 6] = [
        1.0,
        0.37,
        1e-3,
        123.456,
        1.0 / (1 << 20) as f32,
        f32::MIN_POSITIVE / f32::EPSILON,
    ];

    /// `quantize_row` over `xs` against the scalar definition, element by
    /// element for the code and by total for the saturation count, plus
    /// the lane's own flag per element where the lane applies.
    fn assert_row_matches_definition(xs: &[f32], scale: f32, bits: u32) {
        let mut codes = vec![i32::MIN; xs.len()];
        let saturated = quantize_row(xs, 0.0, scale, bits, &mut codes);
        let mut want_saturated = 0;
        for (&x, &code) in xs.iter().zip(&codes) {
            let (want, sat) = quantize_value_saturating(x, scale, bits);
            assert_eq!(
                code,
                want,
                "x = {x:e} ({:#010x}), scale {scale:e}, {bits} bits",
                x.to_bits()
            );
            want_saturated += sat as usize;
            if bits <= LANE_MAX_BITS {
                let k = qmax(bits);
                let lane = quantize_lane(x / scale, (k + 1) as f32, k);
                assert_eq!(
                    lane,
                    (want, sat as i32),
                    "lane flag: x = {x:e} ({:#010x}), scale {scale:e}, {bits} bits",
                    x.to_bits()
                );
            }
        }
        assert_eq!(
            saturated, want_saturated,
            "saturation count, scale {scale:e}, {bits} bits"
        );
    }

    #[test]
    fn row_quantizer_equals_the_definition_across_the_f32_bit_patterns() {
        // Every `stride`-th bit pattern of the whole u32 range: both signs,
        // NaNs, ±∞, subnormals and every exponent. Optimized builds take
        // every 257th (16.7 M patterns × 6 scales × 4 widths); a debug
        // build would need minutes for that, so it strides 64× coarser.
        let stride: u32 = if cfg!(debug_assertions) {
            257 * 64 + 1
        } else {
            257
        };
        let mut xs = Vec::with_capacity(4096);
        let mut bits_pattern = 0_u32;
        loop {
            xs.clear();
            let mut wrapped = false;
            while xs.len() < xs.capacity() {
                xs.push(f32::from_bits(bits_pattern));
                match bits_pattern.checked_add(stride) {
                    Some(next) => bits_pattern = next,
                    None => {
                        wrapped = true;
                        break;
                    }
                }
            }
            for scale in SWEEP_SCALES {
                for bits in [2, 4, 8, 16] {
                    assert_row_matches_definition(&xs, scale, bits);
                }
            }
            if wrapped {
                break;
            }
        }
    }

    #[test]
    fn row_quantizer_rounds_every_tie_away_from_zero() {
        // Every half-integer quotient in ±600 and the floats either side of
        // it, at scales where `x / scale` reproduces the quotient exactly.
        // These are the only inputs where round-to-even and round-half-away
        // differ, so a wrong tie repair cannot pass here.
        let mut xs = Vec::new();
        for h in -1200..=1200_i32 {
            let v = h as f32 / 2.0;
            xs.extend([v, f32::from_bits(v.to_bits() + 1)]);
            if v != 0.0 {
                xs.push(f32::from_bits(v.to_bits() - 1));
            }
        }
        for (scale, bits) in [
            (1.0, 16),
            (1.0, 8),
            (1.0, 4),
            (0.25, 16),
            (4.0, 11),
            (1.0, 22),
        ] {
            let scaled: Vec<f32> = xs.iter().map(|&v| v * scale).collect();
            assert_row_matches_definition(&scaled, scale, bits);
        }
        // Spot values, so the direction is pinned and not only the
        // agreement with `f32::round`.
        let mut codes = [0; 8];
        let ties = [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 126.5, -126.5];
        assert_eq!(quantize_row(&ties, 0.0, 1.0, 8, &mut codes), 0);
        assert_eq!(codes, [1, -1, 2, -2, 3, -3, 127, -127]);
        // The tie at the edge of the range rounds out of it and saturates.
        let edge = [127.5, -127.5, 127.49, -127.49];
        let mut codes = [0; 4];
        assert_eq!(quantize_row(&edge, 0.0, 1.0, 8, &mut codes), 2);
        assert_eq!(codes, [127, -127, 127, -127]);
    }

    #[test]
    fn row_quantizer_treats_the_tail_like_the_body() {
        // Lengths around the chunk width, and 1,000 = 125 whole chunks: the
        // same element gets the same code wherever it falls.
        let source: Vec<f32> = (0..1000)
            .map(|i| match i % 9 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => (i as f32 - 500.0) + 0.5,
                _ => (i as f32 - 500.0) * 0.37,
            })
            .collect();
        for len in [0, 1, QUANT_LANES - 1, QUANT_LANES, QUANT_LANES + 1, 1000] {
            for bits in [4, 8] {
                assert_row_matches_definition(&source[..len], 1.0, bits);
                assert_row_matches_definition(&source[1000 - len..], 0.37, bits);
            }
        }
    }

    #[test]
    fn row_quantizer_applies_per_element_bias_and_scale() {
        for len in [1, QUANT_LANES + 3, 64] {
            let x: Vec<f32> = (0..len).map(|i| (i as f32 - 20.0) * 1.7).collect();
            let bias: Vec<f32> = (0..len).map(|i| (i % 5) as f32 - 2.0).collect();
            let scale: Vec<f32> = (0..len).map(|i| 0.05 * (1 << (i % 4)) as f32).collect();
            let mut codes = vec![0; len];
            let saturated = quantize_row(&x, &bias[..], &scale[..], 8, &mut codes);
            let mut want_saturated = 0;
            for i in 0..len {
                let (want, sat) = quantize_value_saturating(x[i] - bias[i], scale[i], 8);
                assert_eq!(codes[i], want, "element {i} of {len}");
                want_saturated += sat as usize;
            }
            assert_eq!(saturated, want_saturated);
            assert!(saturated > 0, "the fixture must saturate somewhere");
        }
    }

    #[test]
    fn row_quantizer_counts_every_saturated_element() {
        // Every element out of range, in every lane and in the tail.
        let xs = vec![1e9_f32; 2 * QUANT_LANES + 5];
        let mut codes = vec![0; xs.len()];
        assert_eq!(quantize_row(&xs, 0.0, 1.0, 4, &mut codes), xs.len());
        assert!(codes.iter().all(|&q| q == 7));
        assert_eq!(quantize_row(&xs, 0.0, -1.0, 4, &mut codes), xs.len());
        assert!(codes.iter().all(|&q| q == -7));
    }

    #[test]
    fn widths_past_the_lane_argument_run_the_definition() {
        // qmax + 1 ≥ 2^22: the magic-add argument no longer holds, so these
        // widths must take the scalar path and still agree with it.
        let mut xs: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 1.0e8 + 0.5).collect();
        xs.extend([
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            4_194_303.5,
            -4_194_304.5,
            8_388_607.5,
            1_073_741_823.0,
            -1_073_741_824.0,
            3e9,
        ]);
        for bits in [23, 24, 31] {
            for scale in [1.0, 0.37, 123.456] {
                assert_row_matches_definition(&xs, scale, bits);
            }
        }
        // The last lane width: qmax + 1 = 2^21, clamp bound included.
        let edge = [2_097_151.0, 2_097_151.5, 2_097_152.0, -2_097_151.5, 3e9];
        assert_row_matches_definition(&edge, 1.0, LANE_MAX_BITS);
    }

    #[test]
    #[should_panic(expected = "row operand length mismatch")]
    fn row_quantizer_rejects_a_short_scale_row() {
        let _ = quantize_row(&[1.0, 2.0], 0.0, &[1.0][..], 8, &mut [0, 0]);
    }

    #[test]
    fn round_trip_error_bounded_by_half_scale() {
        let s = symmetric_scale(10.0, 8);
        for i in 0..1000 {
            let x = -10.0 + 0.02 * i as f32;
            let err = (dequantize(quantize_value(x, s, 8), s) - x).abs();
            assert!(err <= s / 2.0 + 1e-6, "x={x} err={err} s={s}");
        }
    }

    #[test]
    fn fake_quantize_idempotent() {
        let m = Matrix::from_rows(&[vec![0.31, -0.77, 0.1]]).unwrap();
        let s = symmetric_scale(1.0, 8);
        let fq = fake_quantize(&m, s, 8);
        let fq2 = fake_quantize(&fq, s, 8);
        assert!(fq.approx_eq(&fq2, 1e-7));
    }

    #[test]
    fn f16_round_exact_values_unchanged() {
        for x in [0.0_f32, 1.0, -2.5, 0.5, 1024.0, -0.125] {
            assert_eq!(f16_round(x), x, "{x} is exactly representable in f16");
        }
    }

    #[test]
    fn f16_round_known_rounding() {
        // 1 + 2^-11 rounds to 1.0 (10 mantissa bits, round to even).
        let x = 1.0 + 2.0_f32.powi(-11);
        assert_eq!(f16_round(x), 1.0);
        // 1 + 2^-10 is representable.
        let y = 1.0 + 2.0_f32.powi(-10);
        assert_eq!(f16_round(y), y);
    }

    #[test]
    fn f16_round_saturates() {
        assert_eq!(f16_round(1e6), 65504.0);
        assert_eq!(f16_round(-1e6), -65504.0);
    }

    #[test]
    fn f16_round_flushes_tiny() {
        assert_eq!(f16_round(1e-9), 0.0);
        // Subnormal half value survives (coarsely).
        let sub = 2.0_f32.powi(-20);
        let r = f16_round(sub);
        assert!(r > 0.0 && (r - sub).abs() <= 2.0_f32.powi(-24));
    }

    #[test]
    fn f16_round_preserves_nan() {
        assert!(f16_round(f32::NAN).is_nan());
    }
}
