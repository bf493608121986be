//! # tender-model
//!
//! Synthetic Transformer language-model substrate for the
//! [Tender (ISCA 2024)] reproduction.
//!
//! The paper evaluates on OPT / LLaMA / Llama-2 / BERT checkpoints, which a
//! from-scratch Rust reproduction cannot ship. This crate substitutes
//! *structurally faithful synthetic models*: full Transformer inference
//! (attention + FFN + residuals + (Layer|RMS)Norm) whose weights are random
//! but whose **activation outlier structure matches the paper's analysis**
//! — a few fixed channels carry magnitudes tens of times larger than the
//! rest, induced by large LayerNorm gain weights in those channels, the
//! mechanism §II-B cites. Every quantization scheme from `tender-quant`
//! plugs into every matmul site of the forward pass.
//!
//! Evaluation is by **proxy perplexity**: token streams are labelled by the
//! FP32 reference model's own next-token distribution, so the reference
//! achieves `ppl ≈ exp(H)` and a quantized model pays `exp(H + KL)` — the
//! KL divergence its quantization error induces. Catastrophic schemes
//! produce garbage logits and astronomically large proxy perplexity,
//! reproducing the `1E+6`-style entries of the paper's tables; good schemes
//! stay within fractions of the baseline. See `DESIGN.md` §2 for why this
//! preserves the tables' *shape*.
//!
//! # Example
//!
//! ```
//! use tender_model::{ModelShape, SyntheticLlm};
//!
//! let shape = ModelShape::tiny_test();
//! let model = SyntheticLlm::generate(&shape, 7);
//! let logits = model.reference().forward(&[1, 2, 3, 4]);
//! assert_eq!(logits.shape(), (4, shape.vocab));
//! ```
//!
//! [Tender (ISCA 2024)]: https://dl.acm.org/doi/10.1109/ISCA59077.2024.00059

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
pub mod calibration;
pub mod engine;
pub mod eval;
pub mod forward;
pub mod glue;
mod kv;
mod pipeline;
mod session;
pub mod shape;
pub mod synthetic;
#[cfg(test)]
mod test_support;
pub mod weights;
pub mod zeroshot;

pub use engine::{
    demote_payload, greedy_token, BatchEngine, BatchError, DecodeSession, KvCache, KvCacheMode,
    KvTierStats, ModelRef, StepError,
};
pub use forward::{DegradedSite, QuantizedModel, ReferenceModel, Site};
pub use shape::{Activation, ModelKind, ModelShape, NormKind};
pub use synthetic::SyntheticLlm;
pub use tender_tensor::{ArenaConfig, ArenaStats, EvictError, KvArena, PageTier};
pub use weights::{LayerWeights, ShapeError, TransformerWeights};
