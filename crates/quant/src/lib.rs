//! # tender-quant
//!
//! Quantization framework for the [Tender (ISCA 2024)] reproduction.
//!
//! The crate implements:
//!
//! * **Primitives** ([`quantizer`]) — uniform symmetric quantization at
//!   arbitrary bit widths, scale-factor computation, fake-quantization.
//! * **Granularities** ([`granularity`]) — per-tensor, per-row (per-token),
//!   and per-column (per-channel) activation quantization, reproducing the
//!   paper's Table I comparison.
//! * **The Tender algorithm** ([`tender`]) — channel bias subtraction,
//!   "power of 2" channel decomposition (Eq. 3), runtime requantization
//!   (Eq. 2) that is *bit-exact* with explicit decomposed accumulation
//!   (Eq. 1), row chunking, and calibration.
//! * **Baselines** ([`baselines`]) — SmoothQuant, LLM.int8()-style
//!   mixed-precision decomposition, ANT adaptive datatypes, OliVe
//!   outlier-victim pairs, MSFP12(±OL) block floating point, and
//!   SMX4/MXFP4 microscaling formats.
//! * **A uniform [`Scheme`] interface** ([`scheme`]) — every scheme exposes
//!   "calibrate on a site's activation statistics (or, for ANT and OliVe,
//!   the samples), then perform approximate matmul", so `tender-model` can
//!   swap schemes inside a Transformer forward pass.
//!
//! # Example: quantized matmul with Tender
//!
//! ```
//! use tender_quant::scheme::Scheme;
//! use tender_quant::tender::{TenderConfig, TenderScheme};
//! use tender_tensor::{rng::DetRng, Matrix};
//!
//! let mut rng = DetRng::new(0);
//! let x = rng.normal_matrix(16, 32, 0.0, 1.0);
//! let w = rng.normal_matrix(32, 8, 0.0, 0.1);
//! let scheme = TenderScheme::new(TenderConfig::int8());
//! let op = scheme.prepare(std::slice::from_ref(&x), &w);
//! let y = op.forward(&x);
//! let exact = x.matmul(&w).unwrap();
//! assert!(tender_tensor::stats::sqnr_db(&exact, &y) > 30.0);
//! ```
//!
//! [Tender (ISCA 2024)]: https://dl.acm.org/doi/10.1109/ISCA59077.2024.00059

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod granularity;
pub mod quantizer;
pub mod scheme;
mod site_stats;
pub mod tender;

pub use quantizer::{
    dequantize, qmax, quantize_matrix, quantize_row, quantize_value, quantize_value_saturating,
    symmetric_scale,
};
pub use scheme::{CalibInput, QuantMatmul, Scheme, SiteStats};
