//! # tender-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! Tender paper's evaluation. Each experiment lives in [`experiments`] as a
//! function returning a printable [`fmt::Table`], registered by name in the
//! [`runner`] catalog. `--bin paper <name>...` regenerates entries directly
//! (`cargo run --release -p tender-bench --bin paper table2`);
//! `--bin all_experiments` runs the full suite through the resilient
//! runner (retries, journaling, `--only <name>`, `--metrics-json`).
//!
//! Accuracy experiments run on the scaled-down synthetic models
//! (`ModelShape::eval_preset`), so absolute perplexities differ from the
//! paper — the *orderings, catastrophic-vs-graceful distinctions, and
//! trends* are the reproduction target (see `DESIGN.md`). Performance
//! experiments (Fig. 10/11/13, Table V) use the full-size model shapes
//! through the analytic+functional hardware models and are directly
//! comparable to the paper's relative numbers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod fmt;
pub mod runner;

use tender::ExperimentOptions;

/// Experiment sizing: `TENDER_FAST=1` shrinks everything for smoke tests.
pub fn options() -> ExperimentOptions {
    if fast_mode() {
        ExperimentOptions::fast()
    } else {
        ExperimentOptions::standard()
    }
}

/// Whether `TENDER_FAST=1` is set.
pub fn fast_mode() -> bool {
    std::env::var("TENDER_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Width divisor / layer count for `ModelShape::scaled_for_eval` under the
/// current mode.
pub fn eval_scale() -> (usize, usize) {
    if fast_mode() {
        (32, 2)
    } else {
        (16, 6)
    }
}
