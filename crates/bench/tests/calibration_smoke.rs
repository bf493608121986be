//! Calibration tripwire: building a site's calibration must cost about one
//! pass over its captured samples, not a re-stacking of them.
//!
//! `TenderCalibration::from_samples` folds the samples into their
//! `SiteStats` where they lie and calibrates from those, so over 32
//! samples of 96 × 1,024 (a model site's capture at the eval preset) it
//! must take ≤ 3× the time of `ChunkCalibration::from_activation` over the
//! same rows already stacked. `stack_samples`, what ANT and OliVe read,
//! must take ≤ 3× the time of one `Vec::extend_from_slice` of the
//! same bytes into a fresh allocation. A pairwise `vstack` fold re-copies
//! everything stacked so far on every append and reads ≈ 30× and ≈ 40×.
//!
//! Identity comes first and runs in every build: a fast wrong calibration
//! must fail here, not get timed. Timing is min-of-N over interleaved runs
//! (min is robust to scheduler noise; interleaving cancels drift) and only
//! asserts in optimized builds.

use std::time::{Duration, Instant};

use tender_quant::scheme::stack_samples;
use tender_quant::tender::{ChunkCalibration, TenderCalibration, TenderConfig};
use tender_tensor::rng::DetRng;

const SAMPLES: usize = 32;
const ROWS: usize = 96;
const K: usize = 1024;
const GATE: f64 = 3.0;

/// One timing sample of `f`, folded into the running minimum.
fn sample<R>(best: &mut Duration, mut f: impl FnMut() -> R) {
    let t0 = Instant::now();
    std::hint::black_box(f());
    *best = (*best).min(t0.elapsed());
}

#[test]
fn calibration_reads_samples_in_place() {
    let mut rng = DetRng::new(35);
    let samples: Vec<_> = (0..SAMPLES)
        .map(|_| rng.normal_matrix(ROWS, K, 0.0, 1.0))
        .collect();
    // The default chunk spans all 96 rows: one chunk over the whole set.
    let config = TenderConfig::int8();

    let stacked = stack_samples(&samples);
    let concat: Vec<f32> = samples
        .iter()
        .flat_map(|s| s.as_slice().iter().copied())
        .collect();
    assert_eq!(stacked.shape(), (SAMPLES * ROWS, K));
    assert_eq!(stacked.as_slice(), &concat[..], "stack_samples order");
    let cal = TenderCalibration::from_samples(&samples, &config);
    assert_eq!(cal.chunks().len(), 1);
    assert_eq!(
        cal.chunks()[0],
        ChunkCalibration::from_activation(&stacked, &config),
        "from_samples must equal from_activation over the stacked rows"
    );

    if cfg!(debug_assertions) {
        eprintln!("debug build: identity checked, timing assertion skipped");
        return;
    }

    let (mut fold_t, mut stacked_t) = (Duration::MAX, Duration::MAX);
    let (mut stack_t, mut copy_t) = (Duration::MAX, Duration::MAX);
    for _ in 0..15 {
        sample(&mut fold_t, || {
            TenderCalibration::from_samples(&samples, &config)
        });
        sample(&mut stacked_t, || {
            ChunkCalibration::from_activation(&stacked, &config)
        });
        sample(&mut stack_t, || stack_samples(&samples));
        sample(&mut copy_t, || {
            let mut v = Vec::with_capacity(concat.len());
            v.extend_from_slice(&concat);
            v
        });
    }
    let ms = |t: Duration| t.as_secs_f64() * 1e3;
    let calib_ratio = fold_t.as_secs_f64() / stacked_t.as_secs_f64();
    let stack_ratio = stack_t.as_secs_f64() / copy_t.as_secs_f64();
    eprintln!(
        "{SAMPLES} x {ROWS} x {K}: from_samples {:.2} ms vs from_activation (pre-stacked) {:.2} ms \
         ({calib_ratio:.2}x); stack_samples {:.2} ms vs one copy {:.2} ms ({stack_ratio:.2}x)",
        ms(fold_t),
        ms(stacked_t),
        ms(stack_t),
        ms(copy_t)
    );
    assert!(
        calib_ratio <= GATE,
        "from_samples takes {calib_ratio:.2}x from_activation over the same rows (gate {GATE}x): \
         does it copy the samples again?"
    );
    assert!(
        stack_ratio <= GATE,
        "stack_samples takes {stack_ratio:.2}x one copy of the same bytes (gate {GATE}x): \
         does it re-copy what it has stacked?"
    );
}
