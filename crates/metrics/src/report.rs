//! Structured metrics snapshot and hand-rolled JSON emission.
//!
//! The workspace is dependency-free, so JSON is written by hand. Keys are
//! static identifiers (no escaping needed beyond the standard string rules,
//! which [`escape`] applies anyway), ordering is fixed, and the output is
//! valid JSON by construction — the bench suite re-parses it with an
//! independent minimal parser to keep this honest.

use crate::{
    engine, faults, gemm, kernel, kv_arena, model, pool, runner, serve, sim, Counter, Timer,
};

/// A single exported metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counters, gauges, nanoseconds).
    U64(u64),
    /// Array of unsigned integers (per-thread / per-group banks).
    Array(Vec<u64>),
    /// Nested object (timer breakdowns).
    Object(Vec<(String, Value)>),
}

/// One named subsystem in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Subsystem name (`pool`, `kernel`, `gemm`, `model`, `engine`,
    /// `kv_arena`, `sim`, `faults`, `runner`, `serve`).
    pub name: &'static str,
    /// Ordered metric fields.
    pub fields: Vec<(String, Value)>,
}

impl Section {
    /// Looks up a top-level `u64` field by name.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.fields.iter().find_map(|(k, v)| match v {
            Value::U64(n) if k == key => Some(*n),
            _ => None,
        })
    }
}

/// A point-in-time snapshot of every metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Ordered subsystem sections.
    pub sections: Vec<Section>,
}

impl Report {
    /// The section named `name`, if present.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        for (si, sec) in self.sections.iter().enumerate() {
            out.push_str(&format!("  \"{}\": {{\n", escape(sec.name)));
            for (fi, (k, v)) in sec.fields.iter().enumerate() {
                out.push_str(&format!("    \"{}\": ", escape(k)));
                write_value(&mut out, v, 4);
                out.push_str(if fi + 1 < sec.fields.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("  }");
            out.push_str(if si + 1 < self.sections.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("}\n");
        out
    }
}

fn write_value(out: &mut String, v: &Value, indent: usize) {
    match v {
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::Array(xs) => {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&x.to_string());
            }
            out.push(']');
        }
        Value::Object(fields) => {
            let pad = " ".repeat(indent + 2);
            out.push_str("{\n");
            for (i, (k, fv)) in fields.iter().enumerate() {
                out.push_str(&format!("{pad}\"{}\": ", escape(k)));
                write_value(out, fv, indent + 2);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            out.push_str(&" ".repeat(indent));
            out.push('}');
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn timer_value(t: &Timer) -> Value {
    Value::Object(vec![
        ("count".into(), Value::U64(t.count())),
        ("total_ns".into(), Value::U64(t.total_ns())),
        ("mean_ns".into(), Value::U64(t.mean_ns())),
        ("max_ns".into(), Value::U64(t.max_ns())),
    ])
}

/// Trims trailing zero slots from a counter bank (keeps at least one entry).
fn bank_values<const N: usize>(bank: &[Counter; N]) -> Vec<u64> {
    let vals: Vec<u64> = bank.iter().map(Counter::get).collect();
    let last = vals.iter().rposition(|&v| v != 0).map_or(0, |i| i + 1);
    vals[..last.max(1)].to_vec()
}

pub(crate) fn build() -> Report {
    let pool_section = Section {
        name: "pool",
        fields: vec![
            ("threads".into(), Value::U64(pool::THREADS.get())),
            (
                "parallel_batches".into(),
                Value::U64(pool::PARALLEL_BATCHES.get()),
            ),
            (
                "parallel_items".into(),
                Value::U64(pool::PARALLEL_ITEMS.get()),
            ),
            ("inline_items".into(), Value::U64(pool::INLINE_ITEMS.get())),
            (
                "queue_depth_max".into(),
                Value::U64(pool::QUEUE_DEPTH_MAX.get()),
            ),
            ("batch_latency".into(), timer_value(&pool::BATCH_LATENCY)),
            (
                "thread_busy_ns".into(),
                Value::Array(bank_values(pool::THREAD_BUSY_NS.slots())),
            ),
        ],
    };
    let kernel_section = Section {
        name: "kernel",
        fields: vec![
            (
                "implicit_matmuls".into(),
                Value::U64(kernel::IMPLICIT_MATMULS.get()),
            ),
            (
                "explicit_matmuls".into(),
                Value::U64(kernel::EXPLICIT_MATMULS.get()),
            ),
            (
                "quantized_values".into(),
                Value::U64(kernel::QUANTIZED_VALUES.get()),
            ),
            (
                "saturated_values".into(),
                Value::U64(kernel::SATURATED_VALUES.get()),
            ),
            (
                "group_quantized".into(),
                Value::Array(bank_values(kernel::GROUP_QUANTIZED.slots())),
            ),
            (
                "overflow_events".into(),
                Value::U64(kernel::OVERFLOW_EVENTS.get()),
            ),
            (
                "chunks_fast_path".into(),
                Value::U64(kernel::CHUNKS_FAST_PATH.get()),
            ),
            (
                "chunks_checked".into(),
                Value::U64(kernel::CHUNKS_CHECKED.get()),
            ),
        ],
    };
    let gemm_section = Section {
        name: "gemm",
        fields: vec![(
            "reference_gemms".into(),
            Value::U64(gemm::REFERENCE_GEMMS.get()),
        )],
    };
    // Per-layer timers: export only layers that actually ran, as an array of
    // {layer, count, total_ns, mean_ns, max_ns} objects.
    let layers: Vec<(String, Value)> = model::LAYER_FORWARD
        .slots()
        .iter()
        .enumerate()
        .filter(|(_, t)| t.count() > 0)
        .map(|(i, t)| (format!("layer_{i}"), timer_value(t)))
        .collect();
    let model_section = Section {
        name: "model",
        fields: vec![
            (
                "forward_passes".into(),
                Value::U64(model::FORWARD_PASSES.get()),
            ),
            ("layer_forward".into(), Value::Object(layers)),
        ],
    };
    let engine_section = Section {
        name: "engine",
        fields: vec![
            ("prefills".into(), Value::U64(engine::PREFILLS.get())),
            (
                "prefill_tokens".into(),
                Value::U64(engine::PREFILL_TOKENS.get()),
            ),
            (
                "decode_steps".into(),
                Value::U64(engine::DECODE_STEPS.get()),
            ),
            ("decode_macs".into(), Value::U64(engine::DECODE_MACS.get())),
            ("prefill_time".into(), timer_value(&engine::PREFILL_TIME)),
            (
                "decode_step_time".into(),
                timer_value(&engine::DECODE_STEP_TIME),
            ),
            (
                "kv_cache_bytes".into(),
                Value::U64(engine::KV_CACHE_BYTES.get()),
            ),
            (
                "kv_cache_allocated_bytes".into(),
                Value::U64(engine::KV_CACHE_ALLOCATED_BYTES.get()),
            ),
            (
                "kv_cache_peak_bytes".into(),
                Value::U64(engine::KV_CACHE_PEAK_BYTES.get()),
            ),
            ("kv_requants".into(), Value::U64(engine::KV_REQUANTS.get())),
            ("kv_int_dots".into(), Value::U64(engine::KV_INT_DOTS.get())),
            (
                "kv_int_dot_macs".into(),
                Value::U64(engine::KV_INT_DOT_MACS.get()),
            ),
            (
                "decode_truncated".into(),
                Value::U64(engine::DECODE_TRUNCATED.get()),
            ),
        ],
    };
    let kv_arena_section = Section {
        name: "kv_arena",
        fields: vec![
            ("arenas".into(), Value::U64(kv_arena::ARENAS.get())),
            (
                "page_allocs".into(),
                Value::U64(kv_arena::PAGE_ALLOCS.get()),
            ),
            ("page_frees".into(), Value::U64(kv_arena::PAGE_FREES.get())),
            (
                "pages".into(),
                Value::Array(vec![
                    kv_arena::PAGES_F32.get(),
                    kv_arena::PAGES_INT8.get(),
                    kv_arena::PAGES_INT4.get(),
                ]),
            ),
            (
                "resident_bytes".into(),
                Value::Array(vec![
                    kv_arena::RESIDENT_F32.get(),
                    kv_arena::RESIDENT_INT8.get(),
                    kv_arena::RESIDENT_INT4.get(),
                ]),
            ),
            (
                "allocated_bytes".into(),
                Value::Array(vec![
                    kv_arena::ALLOCATED_F32.get(),
                    kv_arena::ALLOCATED_INT8.get(),
                    kv_arena::ALLOCATED_INT4.get(),
                ]),
            ),
            (
                "demoted_int8".into(),
                Value::U64(kv_arena::DEMOTED_INT8.get()),
            ),
            (
                "demoted_int4".into(),
                Value::U64(kv_arena::DEMOTED_INT4.get()),
            ),
            ("cow_copies".into(), Value::U64(kv_arena::COW_COPIES.get())),
            (
                "evict_failures".into(),
                Value::U64(kv_arena::EVICT_FAILURES.get()),
            ),
            (
                "alloc_retries".into(),
                Value::U64(kv_arena::ALLOC_RETRIES.get()),
            ),
            (
                "shard_contention".into(),
                Value::U64(kv_arena::SHARD_CONTENTION.get()),
            ),
            (
                "demotion_queue_depth".into(),
                Value::U64(kv_arena::DEMOTION_QUEUE_DEPTH.get()),
            ),
            (
                "demotion_queue_peak".into(),
                Value::U64(kv_arena::DEMOTION_QUEUE_PEAK.get()),
            ),
            (
                "async_demoted_pages".into(),
                Value::U64(kv_arena::ASYNC_DEMOTED_PAGES.get()),
            ),
            (
                "async_demoted_bytes".into(),
                Value::U64(kv_arena::ASYNC_DEMOTED_BYTES.get()),
            ),
        ],
    };
    let sim_section = Section {
        name: "sim",
        fields: vec![
            ("dram_row_hits".into(), Value::U64(sim::DRAM_ROW_HITS.get())),
            (
                "dram_row_misses".into(),
                Value::U64(sim::DRAM_ROW_MISSES.get()),
            ),
            ("dram_bytes".into(), Value::U64(sim::DRAM_BYTES.get())),
            (
                "dram_refresh_stalls".into(),
                Value::U64(sim::DRAM_REFRESH_STALLS.get()),
            ),
            ("accel_runs".into(), Value::U64(sim::ACCEL_RUNS.get())),
            ("accel_cycles".into(), Value::U64(sim::ACCEL_CYCLES.get())),
            (
                "accel_dram_bytes".into(),
                Value::U64(sim::ACCEL_DRAM_BYTES.get()),
            ),
            ("msa_runs".into(), Value::U64(sim::MSA_RUNS.get())),
            ("msa_cycles".into(), Value::U64(sim::MSA_CYCLES.get())),
        ],
    };
    let faults_section = Section {
        name: "faults",
        fields: vec![
            (
                "injected_blob".into(),
                Value::U64(faults::INJECTED_BLOB.get()),
            ),
            (
                "injected_weight_nan".into(),
                Value::U64(faults::INJECTED_WEIGHT_NAN.get()),
            ),
            (
                "injected_act_nan".into(),
                Value::U64(faults::INJECTED_ACT_NAN.get()),
            ),
            (
                "injected_dram".into(),
                Value::U64(faults::INJECTED_DRAM.get()),
            ),
            (
                "injected_pool".into(),
                Value::U64(faults::INJECTED_POOL.get()),
            ),
            (
                "injected_exp".into(),
                Value::U64(faults::INJECTED_EXP.get()),
            ),
            (
                "injected_sched".into(),
                Value::U64(faults::INJECTED_SCHED.get()),
            ),
            (
                "degraded_sites".into(),
                Value::U64(faults::DEGRADED_SITES.get()),
            ),
            (
                "fallback_int8".into(),
                Value::U64(faults::FALLBACK_INT8.get()),
            ),
            (
                "fallback_fp16".into(),
                Value::U64(faults::FALLBACK_FP16.get()),
            ),
            (
                "runtime_fallbacks".into(),
                Value::U64(faults::RUNTIME_FALLBACKS.get()),
            ),
            (
                "decode_sanitized".into(),
                Value::U64(faults::DECODE_SANITIZED.get()),
            ),
            (
                "decode_argmax_sanitized".into(),
                Value::U64(faults::DECODE_ARGMAX_SANITIZED.get()),
            ),
        ],
    };
    let serve_section = Section {
        name: "serve",
        fields: vec![
            ("submitted".into(), Value::U64(serve::SUBMITTED.get())),
            ("admitted".into(), Value::U64(serve::ADMITTED.get())),
            (
                "rejected_queue_full".into(),
                Value::U64(serve::REJECTED_QUEUE_FULL.get()),
            ),
            (
                "rejected_kv_budget".into(),
                Value::U64(serve::REJECTED_KV_BUDGET.get()),
            ),
            ("completed".into(), Value::U64(serve::COMPLETED.get())),
            ("expired".into(), Value::U64(serve::EXPIRED.get())),
            ("failed".into(), Value::U64(serve::FAILED.get())),
            ("iterations".into(), Value::U64(serve::ITERATIONS.get())),
            (
                "stalled_iterations".into(),
                Value::U64(serve::STALLED_ITERATIONS.get()),
            ),
            (
                "prefill_chunk_tokens".into(),
                Value::U64(serve::PREFILL_CHUNK_TOKENS.get()),
            ),
            (
                "decode_tokens".into(),
                Value::U64(serve::DECODE_TOKENS.get()),
            ),
            (
                "queue_depth_max".into(),
                Value::U64(serve::QUEUE_DEPTH_MAX.get()),
            ),
            (
                "batch_occupancy_max".into(),
                Value::U64(serve::BATCH_OCCUPANCY_MAX.get()),
            ),
            (
                "kv_reserved_peak_bytes".into(),
                Value::U64(serve::KV_RESERVED_PEAK_BYTES.get()),
            ),
            (
                "latency_iters_p50".into(),
                Value::U64(serve::LATENCY_ITERS_P50.get()),
            ),
            (
                "latency_iters_p99".into(),
                Value::U64(serve::LATENCY_ITERS_P99.get()),
            ),
            (
                "latency_p50_ns".into(),
                Value::U64(serve::LATENCY_P50_NS.get()),
            ),
            (
                "latency_p99_ns".into(),
                Value::U64(serve::LATENCY_P99_NS.get()),
            ),
            (
                "tokens_per_sec_milli".into(),
                Value::U64(serve::TOKENS_PER_SEC_MILLI.get()),
            ),
            (
                "request_latency".into(),
                timer_value(&serve::REQUEST_LATENCY),
            ),
        ],
    };
    let runner_section = Section {
        name: "runner",
        fields: vec![
            (
                "experiments_run".into(),
                Value::U64(runner::EXPERIMENTS_RUN.get()),
            ),
            (
                "experiments_panicked".into(),
                Value::U64(runner::EXPERIMENTS_PANICKED.get()),
            ),
            (
                "experiments_retried".into(),
                Value::U64(runner::EXPERIMENTS_RETRIED.get()),
            ),
            (
                "experiments_timed_out".into(),
                Value::U64(runner::EXPERIMENTS_TIMED_OUT.get()),
            ),
            (
                "experiments_skipped".into(),
                Value::U64(runner::EXPERIMENTS_SKIPPED.get()),
            ),
        ],
    };
    Report {
        sections: vec![
            pool_section,
            kernel_section,
            gemm_section,
            model_section,
            engine_section,
            kv_arena_section,
            sim_section,
            faults_section,
            serve_section,
            runner_section,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_all_sections_in_order() {
        let r = crate::report();
        let names: Vec<&str> = r.sections.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "pool", "kernel", "gemm", "model", "engine", "kv_arena", "sim", "faults", "serve",
                "runner"
            ]
        );
    }

    #[test]
    fn section_lookup_and_counters_round_trip() {
        kernel::OVERFLOW_EVENTS.reset();
        kernel::OVERFLOW_EVENTS.add(42);
        let r = crate::report();
        let k = r.section("kernel").unwrap();
        assert_eq!(k.get_u64("overflow_events"), Some(42));
        assert!(r.section("nope").is_none());
        kernel::OVERFLOW_EVENTS.reset();
    }

    #[test]
    fn json_is_structurally_balanced() {
        let json = crate::report().to_json();
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"overflow_events\""));
        assert!(json.contains("\"thread_busy_ns\""));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("\n"), "\\u000a");
    }

    #[test]
    fn bank_values_trim_trailing_zeros() {
        let bank: crate::CounterBank<8> = crate::CounterBank::new();
        bank.add(0, 1);
        bank.add(2, 3);
        assert_eq!(bank_values(bank.slots()), vec![1, 0, 3]);
        let empty: crate::CounterBank<8> = crate::CounterBank::new();
        assert_eq!(bank_values(empty.slots()), vec![0]);
    }
}
