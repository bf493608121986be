//! # tender-tensor
//!
//! Dense tensor substrate for the [Tender (ISCA 2024)] reproduction.
//!
//! This crate provides the numeric foundation that every other crate in the
//! workspace builds on:
//!
//! * [`Dense<T>`] — the one dense store: a row-major `rows × cols` buffer of
//!   any element type, with everything element-type-agnostic (construction,
//!   transpose, gather / slice / stack, growable rows, the `map_into` cast)
//!   defined once. The packed Tender weight operand is a `Dense<i16>`.
//! * [`Matrix`] = `Dense<f32>` — plus the linear-algebra and neural-network
//!   operations a Transformer forward pass needs (GEMM, softmax, LayerNorm,
//!   GeLU, …).
//! * [`IMatrix`] = `Dense<i32>` — quantized values (INT4/INT8 elements, INT32
//!   accumulators) with exact integer GEMM.
//! * [`QuantRows`] — packed, growable quantized row storage (INT4/INT8
//!   values plus 2-bit group indices) backing the quantized KV cache.
//! * [`stats`] — per-row/per-column absolute-maximum scans, error metrics
//!   (MSE, SQNR, KL divergence) used throughout the evaluation.
//! * [`rng`] — deterministic random sampling (normal / log-normal /
//!   heavy-tailed) built on a seedable generator, so every experiment in the
//!   reproduction is bit-reproducible.
//! * [`pool`] — a persistent worker pool with a strict determinism contract
//!   (bit-identical results at any thread count) that every data-parallel
//!   hot path in the workspace shares.
//! * [`gemm`] — the GEMM kernels: one plain loop per product (f32, i32,
//!   i64-wide, the two integer KV-attention kernels, the narrow 32-bit
//!   accumulator dot) under one fixed per-element accumulation order.
//! * [`arena`] — a paged KV-cache storage arena ([`KvArena`]) with
//!   refcounted copy-on-write pages and tiered f32 → int8 → int4 demotion
//!   accounting, backing prefix-shared decode sessions.
//!
//! # Example
//!
//! ```
//! use tender_tensor::Matrix;
//!
//! # fn main() -> Result<(), tender_tensor::ShapeError> {
//! let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
//! let b = Matrix::identity(3);
//! let c = a.matmul(&b)?;
//! assert_eq!(c, a);
//! # Ok(())
//! # }
//! ```
//!
//! [Tender (ISCA 2024)]: https://dl.acm.org/doi/10.1109/ISCA59077.2024.00059

#![warn(missing_docs)]
// One `#[allow]`ed site: the lifetime erasure in `pool::Pool::run_impl`.
#![deny(unsafe_code)]

pub mod arena;
mod dense;
mod error;
pub mod gemm;
mod imatrix;
mod matrix;
pub mod ops;
pub mod packed;
pub mod pool;
pub mod qrows;
pub mod rng;
pub mod stats;

pub use arena::{
    ArenaConfig, ArenaStats, DemoteCandidate, DemoteKey, EvictError, KvArena, Page, PagePayload,
    PageTier, QueuedPage,
};
pub use dense::Dense;
pub use error::ShapeError;
pub use imatrix::IMatrix;
pub use matrix::Matrix;
pub use packed::PackedF32;
pub use qrows::QuantRows;
