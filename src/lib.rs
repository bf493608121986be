//! Umbrella package for the Tender reproduction workspace.
//!
//! This crate exists so that `tests/` and `examples/` at the repository root
//! can exercise the public APIs of every workspace crate. The actual
//! functionality lives in the `tender-*` crates; see [`tender`] for the
//! user-facing facade.

#![forbid(unsafe_code)]

pub use tender;
pub use tender_model as model;
pub use tender_quant as quant;
pub use tender_sim as sim;
pub use tender_tensor as tensor;
