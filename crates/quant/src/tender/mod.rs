//! The Tender decomposed-quantization algorithm (§III of the paper).
//!
//! Pipeline (Figure 4):
//!
//! 1. **Bias subtraction** — per channel, `bias = (max + min) / 2` computed
//!    at calibration; subtracting it centers the channel so quantization
//!    uses the full symmetric range.
//! 2. **Channel decomposition** — channels are classified into `G` groups by
//!    comparing their absolute maxima (`CMax`) against thresholds
//!    `TMax / α^g` (Eq. 3, α = 2), so each group's scale factor is a power
//!    of two apart from its neighbors'.
//! 3. **Runtime requantization** — matmul proceeds group by group from the
//!    *largest* scale; between groups the integer accumulator is shifted
//!    left by one bit (Eq. 2). This is bit-exact with the explicit
//!    decomposed accumulation of Eq. 1 but never leaves the integer
//!    pipeline.
//! 4. **Row chunking** (INT4 optimization) — rows are split into chunks of
//!    256 and steps 1–3 are calibrated independently per chunk.

mod calib;
mod config;
mod decompose;
mod matmul;
mod serialize;

pub use calib::{ChunkCalibration, TenderCalibration};
pub use config::TenderConfig;
pub use decompose::{
    classify_channels, group_of, group_scales, group_thresholds, DecompositionError,
};
#[doc(hidden)]
pub use matmul::{
    accumulate_chunk_explicit_shifted, accumulate_chunk_implicit, accumulate_chunk_implicit_with,
    chunk_accumulator_bound, chunk_cannot_overflow, codes_fit_i16,
};
pub use matmul::{
    explicit_requant_matmul, explicit_requant_matmul_at, implicit_requant_matmul,
    implicit_requant_matmul_at, quantized_group_operands, tender_dynamic_matmul, MatmulStats,
    QuantizedWeight,
};
pub use serialize::{decode_calibration, encode_calibration, DecodeError};

use tender_tensor::Matrix;

use crate::scheme::{first_non_finite, PrepareError, QuantMatmul, Scheme};

/// The Tender quantization scheme (factory for calibrated operators).
///
/// # Example
///
/// ```
/// use tender_quant::scheme::Scheme;
/// use tender_quant::tender::{TenderConfig, TenderScheme};
/// use tender_tensor::rng::DetRng;
///
/// let mut rng = DetRng::new(0);
/// let x = rng.normal_matrix(8, 16, 0.0, 1.0);
/// let w = rng.normal_matrix(16, 4, 0.0, 0.1);
/// let op = TenderScheme::new(TenderConfig::int8()).prepare(std::slice::from_ref(&x), &w);
/// let y = op.forward(&x);
/// assert_eq!(y.shape(), (8, 4));
/// ```
#[derive(Debug, Clone)]
pub struct TenderScheme {
    config: TenderConfig,
    /// Run the *explicit* requantization kernel (Eq. 1) at inference time
    /// instead of the implicit shift-accumulate path — the software
    /// baseline the paper's hardware obviates. Numerically equivalent up to
    /// `f32` rounding; useful for end-to-end cost and parity comparisons.
    explicit: bool,
}

impl TenderScheme {
    /// Creates a scheme from a configuration.
    pub fn new(config: TenderConfig) -> Self {
        Self {
            config,
            explicit: false,
        }
    }

    /// Switches runtime inference to the explicit requantization kernel
    /// (Fig. 5(a)): every group's partial product is dequantized to `f32`
    /// and summed, instead of the implicit integer shift-accumulate.
    pub fn with_explicit_requant(mut self) -> Self {
        self.explicit = true;
        self
    }

    /// The configuration this scheme was built with.
    pub fn config(&self) -> &TenderConfig {
        &self.config
    }

    /// Builds the runtime operator from an already-computed calibration.
    fn build_op(&self, calibration: TenderCalibration, w: &Matrix) -> Box<dyn QuantMatmul> {
        let weight = QuantizedWeight::per_col(w, self.config.bits);
        Box::new(TenderMatmul {
            prepared: matmul::prepare_chunks(&weight, &calibration, &self.config),
            calibration,
            weight,
            config: self.config.clone(),
            explicit: self.explicit,
        })
    }
}

/// A calibrated Tender matmul operator for one site.
pub struct TenderMatmul {
    calibration: TenderCalibration,
    /// Per-column quantized weight (integer values + scales).
    weight: QuantizedWeight,
    /// Per calibration chunk, what is static per site and so computed here
    /// once instead of per forward call: `bias · W_deq` and the Index
    /// Buffer flattened to per-channel scale and weight rows.
    prepared: Vec<matmul::PreparedChunk>,
    config: TenderConfig,
    /// Whether runtime inference uses the explicit (Eq. 1) kernel.
    explicit: bool,
}

impl TenderMatmul {
    /// The calibration metadata (group assignments, biases, scales).
    pub fn calibration(&self) -> &TenderCalibration {
        &self.calibration
    }

    /// The quantized weight this operator runs against.
    pub fn weight(&self) -> &QuantizedWeight {
        &self.weight
    }
}

impl QuantMatmul for TenderMatmul {
    fn forward(&self, x: &Matrix) -> Matrix {
        let positions: Vec<usize> = (0..x.rows()).collect();
        self.forward_rows(x, &positions)
    }

    /// Row-chunk calibration is keyed by absolute row index, so the decode
    /// path must pass each row's sequence position through here to stay
    /// bit-identical with the full-sequence forward. Adjacent rows in one
    /// calibration chunk share one kernel call, whichever session they
    /// belong to.
    fn forward_rows(&self, x: &Matrix, positions: &[usize]) -> Matrix {
        let run = if self.explicit {
            matmul::explicit_runs
        } else {
            matmul::implicit_runs
        };
        run(
            x,
            positions,
            &self.weight,
            &self.calibration,
            &self.config,
            Some(&self.prepared),
        )
        .result
    }

    fn weight_bits(&self) -> f32 {
        self.config.bits as f32
    }

    fn act_bits(&self) -> f32 {
        self.config.bits as f32
    }
}

impl Scheme for TenderScheme {
    fn name(&self) -> String {
        let base = if self.config.quant_act_act {
            format!("Tender (all) INT{}", self.config.bits)
        } else {
            format!("Tender INT{}", self.config.bits)
        };
        if self.explicit {
            format!("{base} explicit")
        } else {
            base
        }
    }

    fn prepare(&self, calib_acts: &[Matrix], w: &Matrix) -> Box<dyn QuantMatmul> {
        let calibration = TenderCalibration::from_samples(calib_acts, &self.config);
        self.build_op(calibration, w)
    }

    /// Like the default, screens inputs for non-finite values; additionally
    /// round-trips the calibration through its serialized blob when a fault
    /// plan is installed, so injected bit flips surface as a typed
    /// [`PrepareError::CorruptCalibration`] the model layer can degrade on.
    fn try_prepare(
        &self,
        calib_acts: &[Matrix],
        w: &Matrix,
    ) -> Result<Box<dyn QuantMatmul>, PrepareError> {
        if let Some(at) = first_non_finite(w) {
            return Err(PrepareError::NonFiniteWeight { at });
        }
        for (sample, a) in calib_acts.iter().enumerate() {
            if let Some(at) = first_non_finite(a) {
                return Err(PrepareError::NonFiniteActivation { sample, at });
            }
        }
        let mut calibration = TenderCalibration::from_samples(calib_acts, &self.config);
        if tender_faults::active() {
            if let Some(plan) = tender_faults::plan() {
                // Serialize → (maybe) corrupt → decode. The site key is
                // derived from the blob content, not execution order, so the
                // same site gets the same verdict at any thread count. The
                // encoding is lossless, so the decoded calibration is used
                // either way.
                let mut blob = encode_calibration(&self.config, &calibration);
                let key = tender_faults::hash_bytes(&blob);
                plan.corrupt_blob(key, &mut blob);
                match decode_calibration(&blob) {
                    Ok((_, decoded)) => calibration = decoded,
                    Err(e) => return Err(PrepareError::CorruptCalibration(e.to_string())),
                }
            }
        }
        Ok(self.build_op(calibration, w))
    }

    fn act_act_matmul(&self, a: &Matrix, b: &Matrix) -> Matrix {
        if self.config.quant_act_act {
            tender_dynamic_matmul(a, b, &self.config)
        } else {
            a.matmul(b).expect("act_act_matmul shape mismatch")
        }
    }

    fn quantizes_act_act(&self) -> bool {
        self.config.quant_act_act
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tender_tensor::rng::DetRng;
    use tender_tensor::stats::sqnr_db;

    fn outlier_activation(rng: &mut DetRng, rows: usize, cols: usize) -> Matrix {
        let mut x = rng.normal_matrix(rows, cols, 0.0, 0.5);
        for r in 0..rows {
            x[(r, 2)] = rng.normal(1.0, 30.0);
            x[(r, 7)] = rng.normal(-2.0, 18.0);
        }
        x
    }

    #[test]
    fn int8_tender_is_nearly_lossless_with_outliers() {
        let mut rng = DetRng::new(100);
        let x = outlier_activation(&mut rng, 64, 32);
        let w = rng.normal_matrix(32, 16, 0.0, 0.1);
        let exact = x.matmul(&w).unwrap();
        let op = TenderScheme::new(TenderConfig::int8()).prepare(std::slice::from_ref(&x), &w);
        let sqnr = sqnr_db(&exact, &op.forward(&x));
        assert!(sqnr > 30.0, "sqnr {sqnr}");
    }

    #[test]
    fn int4_tender_preserves_normal_channels_per_tensor_crushes_them() {
        use crate::granularity::{Granularity, GranularityScheme};
        use tender_tensor::stats::mse;

        // Through an identity weight the matmul output is the effectively
        // quantized activation; we compare fidelity on the normal channels,
        // which is what drives model quality (see Table I discussion).
        let mut rng = DetRng::new(101);
        let x = outlier_activation(&mut rng, 64, 32);
        let w = Matrix::identity(32);
        let calib = vec![x.clone()];
        let normal_cols: Vec<usize> = (0..32).filter(|&c| c != 2 && c != 7).collect();
        let x_normal = x.gather_cols(&normal_cols);

        let tender = TenderScheme::new(TenderConfig::int4().with_row_chunk(0)).prepare(&calib, &w);
        let pt = GranularityScheme::new(4, Granularity::PerTensor).prepare(&calib, &w);
        let e_tender = mse(&x_normal, &tender.forward(&x).gather_cols(&normal_cols));
        let e_pt = mse(&x_normal, &pt.forward(&x).gather_cols(&normal_cols));
        assert!(
            e_tender * 20.0 < e_pt,
            "tender normal-channel mse {e_tender} not ≪ per-tensor {e_pt}"
        );
    }

    #[test]
    fn scheme_name_reflects_variant() {
        assert_eq!(
            TenderScheme::new(TenderConfig::int8()).name(),
            "Tender INT8"
        );
        let mut cfg = TenderConfig::int4();
        cfg.quant_act_act = true;
        assert_eq!(TenderScheme::new(cfg).name(), "Tender (all) INT4");
    }

    #[test]
    fn act_act_matmul_respects_variant() {
        let mut rng = DetRng::new(102);
        let a = rng.normal_matrix(8, 8, 0.0, 1.0);
        let b = rng.normal_matrix(8, 8, 0.0, 1.0);
        let exact = a.matmul(&b).unwrap();

        let plain = TenderScheme::new(TenderConfig::int8());
        assert_eq!(plain.act_act_matmul(&a, &b), exact);

        let mut cfg = TenderConfig::int8();
        cfg.quant_act_act = true;
        let all = TenderScheme::new(cfg);
        let approx = all.act_act_matmul(&a, &b);
        assert_ne!(approx, exact); // quantized, so not bit-identical
        assert!(sqnr_db(&exact, &approx) > 25.0); // but close
    }

    #[test]
    fn explicit_mode_runs_the_explicit_kernel() {
        let mut rng = DetRng::new(106);
        let x = outlier_activation(&mut rng, 16, 8);
        let w = rng.normal_matrix(8, 4, 0.0, 0.1);
        let cfg = TenderConfig::int8().with_row_chunk(8);
        let scheme = TenderScheme::new(cfg.clone()).with_explicit_requant();
        assert_eq!(scheme.name(), "Tender INT8 explicit");
        let op = scheme.prepare(std::slice::from_ref(&x), &w);
        // Bit-identical to the raw explicit kernel…
        let calib = TenderCalibration::from_samples(std::slice::from_ref(&x), &cfg);
        let qw = QuantizedWeight::per_col(&w, cfg.bits);
        let want = explicit_requant_matmul(&x, &qw, &calib, &cfg).result;
        assert_eq!(op.forward(&x), want);
        // …and close (but not identical) to the implicit path.
        let implicit = TenderScheme::new(cfg).prepare(std::slice::from_ref(&x), &w);
        let sq = sqnr_db(&implicit.forward(&x), &op.forward(&x));
        assert!(sq > 40.0, "paths diverged beyond f32 rounding: {sq}");
    }

    #[test]
    fn forward_at_matches_full_forward_rows() {
        let mut rng = DetRng::new(107);
        let x = outlier_activation(&mut rng, 24, 8);
        let w = rng.normal_matrix(8, 4, 0.0, 0.1);
        for explicit in [false, true] {
            let mut scheme = TenderScheme::new(TenderConfig::int8().with_row_chunk(8));
            if explicit {
                scheme = scheme.with_explicit_requant();
            }
            let op = scheme.prepare(std::slice::from_ref(&x), &w);
            let full = op.forward(&x);
            for p in 0..x.rows() {
                let row = op.forward_at(&x.slice_rows(p, p + 1), p);
                assert_eq!(row.row(0), full.row(p), "explicit={explicit} row {p}");
            }
        }
    }

    #[test]
    fn try_prepare_round_trips_blob_and_surfaces_corruption() {
        let mut rng = DetRng::new(104);
        let x = outlier_activation(&mut rng, 16, 8);
        let w = rng.normal_matrix(8, 4, 0.0, 0.1);
        let scheme = TenderScheme::new(TenderConfig::int8());

        // Fault-free, try_prepare matches the infallible path bit-for-bit.
        let clean = scheme.try_prepare(std::slice::from_ref(&x), &w).unwrap();
        let plain = scheme.prepare(std::slice::from_ref(&x), &w);
        assert_eq!(clean.forward(&x), plain.forward(&x));

        // With every blob corrupted, the typed error surfaces — no panic.
        let plan = tender_faults::FaultPlan::parse(7, "blob=1").unwrap();
        let _guard = tender_faults::PlanGuard::install(plan);
        match scheme.try_prepare(std::slice::from_ref(&x), &w) {
            Err(PrepareError::CorruptCalibration(_)) => {}
            Err(other) => panic!("expected corrupt-calibration error, got {other:?}"),
            Ok(_) => panic!("expected corrupt-calibration error, got Ok"),
        }
    }

    #[test]
    fn forward_handles_more_rows_than_calibrated() {
        let mut rng = DetRng::new(103);
        let calib = outlier_activation(&mut rng, 16, 8);
        let w = rng.normal_matrix(8, 4, 0.0, 0.1);
        let op = TenderScheme::new(TenderConfig::int8()).prepare(&[calib], &w);
        // Runtime activation with 40 rows: chunks beyond calibration reuse
        // the last chunk's metadata.
        let x = outlier_activation(&mut rng, 40, 8);
        let y = op.forward(&x);
        assert_eq!(y.shape(), (40, 4));
        assert!(y.is_finite());
    }
}
