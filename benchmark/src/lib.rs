//! Building blocks of the repository benchmark (see `README.md`): the
//! workloads, checks, probes, span recorder, metric tables and the
//! `compare` logic. `main.rs` wires them into the command line; the smoke
//! test reads the metric tables and the JSON parser from here.

pub mod checks;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod stamp;
pub mod stats;
pub mod trace;
pub mod workloads;
