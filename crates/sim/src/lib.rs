//! # tender-sim
//!
//! Cycle-level simulator of the Tender accelerator (ISCA 2024, §IV–V) and
//! the baseline accelerators it is compared against.
//!
//! Components:
//!
//! * [`config`] — hardware configuration (64×64 PE Multi-Scale Systolic
//!   Array, 1 GHz, 2×256 KB scratchpad, 2×16 KB index buffer, 64 KB output
//!   buffer, HBM2).
//! * [`msa`] — a **functional, cycle-accurate** model of the Multi-Scale
//!   Systolic Array: a PE mesh with skewing FIFOs, output-stationary
//!   accumulation, and the 1-bit rescale signal travelling with the input
//!   wavefront. Produces bit-exact results against the algorithmic
//!   reference in `tender-quant` and exact cycle counts that validate the
//!   analytic model.
//! * [`dram`] — bank-state HBM2 timing model (row hits/misses, per-channel
//!   buses), standing in for the paper's Ramulator integration.
//! * [`memory`] — scratchpad / index buffer / output buffer models with
//!   capacity checks and access counting (for energy).
//! * [`perf`] — analytic GEMM latency model (validated against [`msa`]),
//!   implicit vs explicit requantization, compute/memory overlap.
//! * [`workload`] — Transformer-layer GEMM workload generation from model
//!   shapes.
//! * [`accel`] — iso-area models of Tender, ANT, OLAccel, and OliVe for
//!   the speedup comparison (Fig. 10).
//! * [`energy`] — per-component energy model (Fig. 11) and the Table V
//!   area/power breakdown ([`area`]).
//! * [`gpu`] — analytic GPU latency model of software quantization schemes
//!   on CUTLASS-style INT8 GEMMs (Fig. 12).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accel;
pub mod area;
pub mod config;
pub mod controller;
pub mod dataflow;
pub mod dram;
pub mod energy;
pub mod generation;
pub mod gpu;
pub mod memory;
pub mod msa;
pub mod perf;
pub mod rtl;
pub mod vpu;
pub mod workload;

pub use accel::{Accelerator, AcceleratorKind, SimConfigError};
pub use config::{HwConfigError, TenderHwConfig};
pub use dram::{HbmConfig, HbmConfigError, HbmModel};
