//! # tender
//!
//! A from-scratch Rust reproduction of **Tender: Accelerating Large
//! Language Models via Tensor Decomposition and Runtime Requantization**
//! (ISCA 2024).
//!
//! This crate is the user-facing facade over the workspace:
//!
//! * [`tensor`] — dense matrix substrate (f32 + integer), NN ops, stats.
//! * [`quant`] — the Tender algorithm (power-of-2 channel decomposition,
//!   implicit runtime requantization, row chunking, calibration) and the
//!   baseline schemes (SmoothQuant, LLM.int8, ANT, OliVe, MSFP, MX/SMX).
//! * [`model`] — synthetic Transformer LMs with the paper's activation
//!   outlier structure, plus proxy perplexity / GLUE / zero-shot
//!   evaluation.
//! * [`sim`] — cycle-level hardware models: the Multi-Scale Systolic
//!   Array, HBM2 timing, iso-area baseline accelerators, energy/area, and
//!   a GPU latency model.
//! * [`metrics`] — std-only observability layer: atomic counters and span
//!   timers recorded across the stack (pool, kernels, model, simulator),
//!   exported as one JSON report via `tender-cli --metrics-json <path>`.
//! * [`faults`] — seeded deterministic fault injection (bit-flipped
//!   calibration blobs, NaN weights/activations, DRAM read errors, task
//!   panics, scheduler stalls) driving the graceful-degradation paths.
//! * [`serve`] — continuous-batching serving layer: admission control,
//!   chunked prefill mixed with in-flight decode, per-request deadlines,
//!   and per-session failure isolation over a seeded synthetic traffic
//!   generator.
//! * [`Experiment`] — an end-to-end harness tying them together:
//!   generate a model, calibrate a scheme, evaluate perplexity.
//!
//! # Quickstart
//!
//! ```
//! use tender::model::ModelShape;
//! use tender::quant::tender::{TenderConfig, TenderScheme};
//! use tender::{Experiment, ExperimentOptions};
//!
//! // A tiny OPT-like model with outlier channels.
//! let shape = ModelShape::tiny_test();
//! let exp = Experiment::new(&shape, ExperimentOptions::fast());
//! let base = exp.reference_perplexity(tender::model::calibration::CorpusKind::Wiki);
//! let tender_ppl = exp.perplexity_of(
//!     Box::new(TenderScheme::new(TenderConfig::int8().with_row_chunk(0))),
//!     tender::model::calibration::CorpusKind::Wiki,
//! );
//! // Tender INT8 stays close to the FP32 baseline.
//! assert!(tender_ppl < base * 1.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use tender_faults as faults;
pub use tender_metrics as metrics;
pub use tender_model as model;
pub use tender_quant as quant;
pub use tender_serve as serve;
pub use tender_sim as sim;
pub use tender_tensor as tensor;

/// The GEMM kernels (re-exported so embedders can reach them, and the
/// benchmark can stamp `gemm::current().label()`, without depending on
/// `tender-tensor` directly).
pub use tender_tensor::gemm;
/// The shared worker pool (re-exported so embedders and the CLI can size it
/// via [`pool::set_threads`] without depending on `tender-tensor` directly).
pub use tender_tensor::pool;

mod experiment;
mod registry;

pub use experiment::{Experiment, ExperimentOptions};
pub use registry::{scheme_by_name, table2_schemes, NamedScheme};
