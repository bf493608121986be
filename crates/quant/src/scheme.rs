//! The uniform scheme interface every quantization method implements.
//!
//! A [`Scheme`] describes *how* to quantize one activation×weight matmul
//! site in a model: given calibration activations and the site's weight, it
//! produces a [`QuantMatmul`] operator that performs the (approximately)
//! quantized product at inference time. This mirrors the paper's static PTQ
//! setting: scale factors, channel groups, and biases are pre-computed from
//! calibration samples (§III-B), and runtime only applies them.

use std::fmt;
use tender_tensor::Matrix;

use crate::quantizer::round_to_f16;

/// A calibrated, ready-to-run quantized matmul operator for one site.
///
/// Implementations capture the (quantized) weight and any calibration
/// metadata at construction, so `forward` is a pure function of the runtime
/// activation.
pub trait QuantMatmul: Send + Sync {
    /// Computes the (approximately) quantized product `x · W` for one
    /// caller's whole sequence: row `r` sits at sequence position `r`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `x.cols()` does not match the weight's row
    /// count used at calibration.
    fn forward(&self, x: &Matrix) -> Matrix;

    /// Computes the quantized product for activation rows that are
    /// **independent tokens**, row `r` at absolute sequence position
    /// `positions[r]`: row `r` of the result equals
    /// `forward_rows(x.row(r), &[positions[r]])` bit for bit — whichever
    /// other rows share the call, in whatever order. This is the license
    /// the decode engine's cached forward rests on: the rows of one call may
    /// be one session's run or the decode rows of several sessions, each at
    /// its own position, and a weight site sees one product either way.
    ///
    /// Position only matters to schemes whose calibration is keyed by row
    /// index (Tender's row chunking, §III-B): decoding token `p` must use
    /// the calibration chunk that covered row `p` during prefill, or the
    /// decode path would not be bit-identical to the full-sequence forward.
    /// The default ignores the positions and is `forward(x)` — correct for
    /// every operator whose `forward` is row-independent (each output row a
    /// function of its own activation row and calibration-time state only).
    /// An operator whose `forward` looks across the rows of a call
    /// (MSFP12-OL's column blocks) must override this to treat each row as
    /// a call of its own ([`forward_each_row`]). The registry's
    /// `every_scheme_stacks_rows_independently` test checks the contract
    /// for every scheme that can be built by name.
    ///
    /// # Panics
    ///
    /// Implementations panic if `positions.len() != x.rows()`.
    fn forward_rows(&self, x: &Matrix, positions: &[usize]) -> Matrix {
        assert_eq!(positions.len(), x.rows(), "one position per row");
        self.forward(x)
    }

    /// [`QuantMatmul::forward_rows`] for tokens that follow one another:
    /// row `r` sits at absolute position `row0 + r`. For a row-independent
    /// operator `forward_at(x, 0)` equals `forward(x)` bit for bit.
    fn forward_at(&self, x: &Matrix, row0: usize) -> Matrix {
        let positions: Vec<usize> = (row0..row0 + x.rows()).collect();
        self.forward_rows(x, &positions)
    }

    /// Average bits per weight element, for memory-traffic modeling.
    fn weight_bits(&self) -> f32;

    /// Average bits per activation element, for memory-traffic modeling.
    fn act_bits(&self) -> f32;
}

/// [`QuantMatmul::forward_rows`] for an operator whose one-call product looks
/// across rows: `one(row, position)` is the product of a single `1 × k` row,
/// run once per row of `x` and stacked into `rows × n`.
pub fn forward_each_row(
    x: &Matrix,
    positions: &[usize],
    n: usize,
    mut one: impl FnMut(&Matrix, usize) -> Matrix,
) -> Matrix {
    assert_eq!(positions.len(), x.rows(), "one position per row");
    let mut out = Matrix::with_row_capacity(n, x.rows());
    for (r, &position) in positions.iter().enumerate() {
        out.push_row(one(&x.slice_rows(r, r + 1), position).row(0));
    }
    out
}

/// Why calibrating a matmul site failed — the typed half of the graceful
/// degradation ladder. A [`PrepareError`] tells the model layer *that* the
/// primary scheme cannot serve this site and *why*, so it can fall back to a
/// simpler scheme instead of aborting the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrepareError {
    /// The site's weight matrix contains NaN or infinity.
    NonFiniteWeight {
        /// First offending (row, col).
        at: (usize, usize),
    },
    /// A calibration activation contains NaN or infinity.
    NonFiniteActivation {
        /// Index of the offending sample and first offending (row, col).
        sample: usize,
        /// First offending (row, col) within that sample.
        at: (usize, usize),
    },
    /// The serialized calibration blob failed to decode (corruption).
    CorruptCalibration(String),
}

impl fmt::Display for PrepareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonFiniteWeight { at } => {
                write!(f, "non-finite weight at ({}, {})", at.0, at.1)
            }
            Self::NonFiniteActivation { sample, at } => write!(
                f,
                "non-finite calibration activation in sample {sample} at ({}, {})",
                at.0, at.1
            ),
            Self::CorruptCalibration(msg) => write!(f, "corrupt calibration blob: {msg}"),
        }
    }
}

impl std::error::Error for PrepareError {}

/// First non-finite element of `m`, if any.
pub fn first_non_finite(m: &Matrix) -> Option<(usize, usize)> {
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            if !m[(r, c)].is_finite() {
                return Some((r, c));
            }
        }
    }
    None
}

/// A quantization scheme: a factory for calibrated [`QuantMatmul`] operators.
///
/// Schemes are stateless descriptions (bit width, thresholds, …); all
/// site-specific state lives in the operators they prepare.
pub trait Scheme: Send + Sync + fmt::Debug {
    /// Human-readable scheme name used in experiment tables
    /// (e.g. `"Tender"`, `"SmoothQuant"`).
    fn name(&self) -> String;

    /// Calibrates the scheme on sample activations for a matmul site with
    /// weight `w`, returning the runtime operator.
    ///
    /// `calib_acts` holds one activation matrix per calibration sample; each
    /// has the same column count as `w.rows()`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `calib_acts` is empty or if shapes are
    /// inconsistent with `w`.
    fn prepare(&self, calib_acts: &[Matrix], w: &Matrix) -> Box<dyn QuantMatmul>;

    /// Fallible calibration: reports recoverable problems (non-finite
    /// inputs, corrupt calibration metadata) as a typed [`PrepareError`]
    /// instead of panicking, so callers can degrade the site to a fallback
    /// scheme. The default screens both inputs for non-finite values and
    /// then delegates to [`Scheme::prepare`]; schemes with their own
    /// failure modes (e.g. Tender's serialized calibration blob) extend it.
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
        Ok(self.prepare(calib_acts, w))
    }

    /// Approximate product of two runtime activations (e.g. `X_Q × X_K^T`).
    ///
    /// The default keeps activation×activation matmuls in floating point,
    /// matching the paper's "Tender" configuration that disables
    /// activation-activation quantization for fair comparison; schemes that
    /// quantize them (e.g. "Tender (all)") override this.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible.
    fn act_act_matmul(&self, a: &Matrix, b: &Matrix) -> Matrix {
        a.matmul(b).expect("act_act_matmul shape mismatch")
    }

    /// Whether [`Scheme::act_act_matmul`] actually quantizes.
    fn quantizes_act_act(&self) -> bool {
        false
    }
}

/// Stacks calibration samples into one tall matrix for global statistics.
///
/// # Panics
///
/// Panics if `samples` is empty or the column counts differ.
pub fn stack_samples(samples: &[Matrix]) -> Matrix {
    assert!(
        !samples.is_empty(),
        "calibration requires at least one sample"
    );
    let mut acc = samples[0].clone();
    for s in &samples[1..] {
        acc = acc
            .vstack(s)
            .expect("calibration samples must share column count");
    }
    acc
}

/// The unquantized FP16 baseline ("Base" rows in the paper's tables).
///
/// Weights and activations are rounded through IEEE half precision; the
/// accumulation itself runs in `f32`, as FP16 tensor cores accumulate in
/// higher precision.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fp16Scheme;

impl Fp16Scheme {
    /// Creates the FP16 baseline scheme.
    pub fn new() -> Self {
        Self
    }
}

struct Fp16Matmul {
    w: Matrix,
}

impl QuantMatmul for Fp16Matmul {
    fn forward(&self, x: &Matrix) -> Matrix {
        round_to_f16(x)
            .matmul(&self.w)
            .expect("activation/weight shape mismatch")
    }

    fn weight_bits(&self) -> f32 {
        16.0
    }

    fn act_bits(&self) -> f32 {
        16.0
    }
}

impl Scheme for Fp16Scheme {
    fn name(&self) -> String {
        "FP16".to_string()
    }

    fn prepare(&self, _calib_acts: &[Matrix], w: &Matrix) -> Box<dyn QuantMatmul> {
        Box::new(Fp16Matmul { w: round_to_f16(w) })
    }
}

/// An exact `f32` reference scheme, used as the ground truth when measuring
/// the error other schemes introduce.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactScheme;

impl ExactScheme {
    /// Creates the exact-reference scheme.
    pub fn new() -> Self {
        Self
    }
}

struct ExactMatmul {
    w: Matrix,
}

impl QuantMatmul for ExactMatmul {
    fn forward(&self, x: &Matrix) -> Matrix {
        x.matmul(&self.w).expect("activation/weight shape mismatch")
    }

    fn weight_bits(&self) -> f32 {
        32.0
    }

    fn act_bits(&self) -> f32 {
        32.0
    }
}

impl Scheme for ExactScheme {
    fn name(&self) -> String {
        "FP32".to_string()
    }

    fn prepare(&self, _calib_acts: &[Matrix], w: &Matrix) -> Box<dyn QuantMatmul> {
        Box::new(ExactMatmul { w: w.clone() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tender_tensor::rng::DetRng;
    use tender_tensor::stats::sqnr_db;

    #[test]
    fn fp16_scheme_is_nearly_exact() {
        let mut rng = DetRng::new(1);
        let x = rng.normal_matrix(8, 16, 0.0, 1.0);
        let w = rng.normal_matrix(16, 4, 0.0, 0.2);
        let op = Fp16Scheme::new().prepare(std::slice::from_ref(&x), &w);
        let exact = x.matmul(&w).unwrap();
        assert!(sqnr_db(&exact, &op.forward(&x)) > 50.0);
        assert_eq!(op.weight_bits(), 16.0);
    }

    #[test]
    fn exact_scheme_is_exact() {
        let mut rng = DetRng::new(2);
        let x = rng.normal_matrix(4, 8, 0.0, 1.0);
        let w = rng.normal_matrix(8, 4, 0.0, 1.0);
        let op = ExactScheme::new().prepare(std::slice::from_ref(&x), &w);
        assert_eq!(op.forward(&x), x.matmul(&w).unwrap());
    }

    #[test]
    fn default_act_act_is_exact_float() {
        let mut rng = DetRng::new(3);
        let a = rng.normal_matrix(4, 6, 0.0, 1.0);
        let b = rng.normal_matrix(6, 5, 0.0, 1.0);
        let s = Fp16Scheme::new();
        assert_eq!(s.act_act_matmul(&a, &b), a.matmul(&b).unwrap());
        assert!(!s.quantizes_act_act());
    }

    #[test]
    fn stack_samples_concatenates_rows() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::filled(1, 3, 1.0);
        let s = stack_samples(&[a, b]);
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s[(2, 0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn stack_samples_rejects_empty() {
        let _ = stack_samples(&[]);
    }
}
