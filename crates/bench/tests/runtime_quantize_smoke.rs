//! Runtime-quantization tripwire: the row quantizer every runtime site goes
//! through (`quantize_row`) must beat the scalar definition it replaced
//! (`quantize_value_saturating` per element: a libm `roundf` call and a
//! scalar saturating cast each) by ≥ 2× on a Tender-shaped row — 1,024
//! channels with per-channel bias and scale. Measured 3–4× on the
//! development host; the gate sits below that to absorb a noisy CI box. If
//! the chunked loop ever stops lowering to packed instructions (a libm call
//! or a data-dependent branch creeping into the lane body does it), the
//! ratio falls to ≈ 1 and this test says so; the loop the primitive
//! replaced fails it by construction.
//!
//! Identity comes first and runs in every build: a fast wrong quantizer
//! must fail here, not get timed. Timing is min-of-N over interleaved runs
//! (min is robust to scheduler noise; interleaving cancels drift) and only
//! asserts in optimized builds.

use std::time::{Duration, Instant};

use tender_quant::quantizer::{quantize_row, quantize_value_saturating};
use tender_tensor::rng::DetRng;

const K: usize = 1024;
const ROWS: usize = 16;
const BITS: u32 = 4;

/// The scalar definition over one row.
fn scalar_row(x: &[f32], bias: &[f32], scale: &[f32], out: &mut [i32]) -> usize {
    let mut saturated = 0;
    for (((o, &x), &b), &s) in out.iter_mut().zip(x).zip(bias).zip(scale) {
        let (q, sat) = quantize_value_saturating(x - b, s, BITS);
        *o = q;
        saturated += sat as usize;
    }
    saturated
}

#[test]
fn row_quantizer_beats_the_scalar_definition() {
    let mut rng = DetRng::new(19);
    let x = rng.normal_matrix(ROWS, K, 0.0, 1.5);
    let bias: Vec<f32> = (0..K).map(|_| rng.normal(0.0, 0.2)).collect();
    // Four power-of-two group scales spread over the channels, as a
    // calibrated Tender chunk has.
    let scale: Vec<f32> = (0..K)
        .map(|c| 0.9 / (1 << [0, 3, 3, 2, 3, 1, 3, 3][c % 8]) as f32)
        .collect();

    let mut want = vec![0_i32; K];
    let mut got = vec![0_i32; K];
    let mut saturated = 0;
    for r in 0..ROWS {
        let want_sat = scalar_row(x.row(r), &bias, &scale, &mut want);
        let got_sat = quantize_row(x.row(r), &bias[..], &scale[..], BITS, &mut got);
        assert_eq!(got, want, "row {r} codes");
        assert_eq!(got_sat, want_sat, "row {r} saturation count");
        saturated += got_sat;
    }
    assert!(saturated > 0, "the fixture must saturate somewhere");

    if cfg!(debug_assertions) {
        eprintln!("debug build: identity checked, timing assertion skipped");
        return;
    }

    let time = |f: &mut dyn FnMut() -> usize| {
        let t0 = Instant::now();
        std::hint::black_box(f());
        t0.elapsed()
    };
    let (mut scalar_t, mut row_t) = (Duration::MAX, Duration::MAX);
    for _ in 0..200 {
        scalar_t = scalar_t.min(time(&mut || {
            (0..ROWS)
                .map(|r| scalar_row(x.row(r), &bias, &scale, &mut want))
                .sum()
        }));
        row_t = row_t.min(time(&mut || {
            (0..ROWS)
                .map(|r| quantize_row(x.row(r), &bias[..], &scale[..], BITS, &mut got))
                .sum()
        }));
    }
    let per_elem = |t: Duration| t.as_secs_f64() * 1e9 / (ROWS * K) as f64;
    let speedup = scalar_t.as_secs_f64() / row_t.as_secs_f64();
    eprintln!(
        "k = {K}: scalar definition {:.2} ns/elem vs row quantizer {:.2} ns/elem ({speedup:.2}x)",
        per_elem(scalar_t),
        per_elem(row_t)
    );
    assert!(
        speedup >= 2.0,
        "the row quantizer is only {speedup:.2}x the scalar definition at k = {K} (gate 2x): \
         has its lane loop stopped vectorizing?"
    );
}
