//! The names every report uses: end-to-end metrics with their regression
//! bounds, per-layer metrics, and the per-layer values read back from the
//! public `tender_metrics` banks around a traced repetition.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the smoke
//! test fails if the two drift apart.

use tender::metrics as m;

use crate::probes::Values;
use crate::workloads::{Output, Rep};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may get worse before a change
/// is rejected.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these (see README.md for what each
/// means on each workload).
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("tokens_per_s", "1/s", Better::Higher, 0.25),
    e2e("ttft_ms_p50", "ms", Better::Lower, 0.25),
    e2e("itl_ms_p50", "ms", Better::Lower, 0.25),
    e2e("req_latency_ms_p50", "ms", Better::Lower, 0.25),
    e2e("peak_kv_bytes", "B", Better::Lower, 0.01),
    e2e("ok_share", "share", Better::Higher, 0.005),
    e2e("argmax_agree_share", "share", Better::Higher, 0.02),
];

use Better::{Higher, Lower};

/// Per-layer metrics: `(name, unit, better)`. Informational — none has a
/// bound. README.md maps each to the end-to-end metric@workload it should
/// move.
pub const PER_LAYER: [(&str, &str, Better); 88] = [
    ("core.setup.model_gen_s", "s", Lower),
    ("core.setup.capture_s", "s", Lower),
    ("core.setup.quantize_s", "s", Lower),
    ("tensor.gemm.f32_m1_us", "us", Lower),
    ("tensor.gemm.f32_m160_us", "us", Lower),
    ("tensor.gemm.i32_m1_us", "us", Lower),
    ("tensor.gemm.i32_m160_us", "us", Lower),
    ("tensor.gemm.f32_m160_gmacs", "GMAC/s", Higher),
    ("tensor.gemm.i32_m160_gmacs", "GMAC/s", Higher),
    ("tensor.gemm.calls", "count", Lower),
    ("tensor.gemm.tiles_fast_share", "share", Higher),
    ("tensor.pool.dispatch_us", "us", Lower),
    ("tensor.pool.parallel_batches", "count", Lower),
    ("tensor.pool.inline_items", "count", Lower),
    ("tensor.pool.busy_share", "share", Higher),
    ("tensor.pool.batch_latency_mean_us", "us", Lower),
    ("quant.tender.prepare_ms", "ms", Lower),
    ("quant.tender.fwd_m1_us", "us", Lower),
    ("quant.tender.fwd_m160_ms", "ms", Lower),
    ("quant.tender.fast_chunk_share", "share", Higher),
    ("quant.tender.overflow_events", "count", Lower),
    ("quant.tender.implicit_matmuls", "count", Lower),
    ("model.step.norm_us", "us", Lower),
    ("model.step.qkv_us", "us", Lower),
    ("model.step.kv_append_us", "us", Lower),
    ("model.step.score_us", "us", Lower),
    ("model.step.softmax_us", "us", Lower),
    ("model.step.value_us", "us", Lower),
    ("model.step.out_proj_us", "us", Lower),
    ("model.step.ffn_us", "us", Lower),
    ("model.step.lm_head_us", "us", Lower),
    ("model.step.replay_sum_us", "us", Lower),
    ("model.step.measured_us", "us", Lower),
    ("model.step.coverage", "share", Higher),
    ("model.step.replay_exact", "bool", Higher),
    ("model.step.macs", "MAC", Lower),
    ("model.step.kv_int_macs", "MAC", Lower),
    ("model.engine.prefill_ms_per_tok", "ms", Lower),
    ("model.engine.step_us_ctx64", "us", Lower),
    ("model.engine.step_us_ctx224", "us", Lower),
    ("model.engine.kv_requants", "count", Lower),
    ("model.kv.append_us_f32", "us", Lower),
    ("model.kv.append_us_int8", "us", Lower),
    ("model.kv.append_us_int4", "us", Lower),
    ("model.kv.score_us_int8", "us", Lower),
    ("model.kv.score_us_int4", "us", Lower),
    ("model.kv.value_us_int8", "us", Lower),
    ("model.kv.value_us_int4", "us", Lower),
    ("model.kv.demote_page_us_f32_int8", "us", Lower),
    ("model.kv.demote_page_us_int8_int4", "us", Lower),
    ("model.kv.drain_ms", "ms", Lower),
    ("model.kv.drain_pages_per_ms", "1/ms", Higher),
    ("model.kv.fork_us", "us", Lower),
    ("model.batch.step_all_us_b1", "us", Lower),
    ("model.batch.step_all_us_b2", "us", Lower),
    ("model.batch.step_all_us_b4", "us", Lower),
    ("model.batch.parallel_efficiency", "share", Higher),
    ("tensor.arena.page_allocs", "count", Lower),
    ("tensor.arena.cow_copies", "count", Lower),
    ("tensor.arena.alloc_retries", "count", Lower),
    ("tensor.arena.evict_failures", "count", Lower),
    ("tensor.arena.shard_contention", "count", Lower),
    ("tensor.arena.demote_queue_peak", "count", Lower),
    ("tensor.arena.reserved_over_used", "ratio", Lower),
    ("serve.iterations", "count", Lower),
    ("serve.iter_ms_mean", "ms", Lower),
    ("serve.tokens_per_iter", "count", Higher),
    ("serve.engine_busy_share", "share", Higher),
    ("serve.queue_depth_max", "count", Lower),
    ("serve.batch_occupancy_max", "count", Higher),
    ("serve.latency_iters_p50", "count", Lower),
    ("serve.latency_iters_p99", "count", Lower),
    ("serve.req_latency_ms_p99", "ms", Lower),
    ("serve.admitted", "count", Higher),
    ("serve.rejected_queue", "count", Lower),
    ("serve.rejected_kv", "count", Lower),
    ("serve.expired", "count", Lower),
    ("serve.truncated", "count", Lower),
    ("serve.failed", "count", Lower),
    ("serve.kv_reserved_peak", "B", Lower),
    ("serve.kv_demoted_pages", "count", Lower),
    ("serve.kv_demoted_bytes", "B", Lower),
    ("serve.prefill_tokens", "count", Higher),
    ("serve.decode_tokens", "count", Higher),
    ("ttft_ms_p90", "ms", Lower),
    ("itl_ms_p95", "ms", Lower),
    ("fail_share", "share", Lower),
    ("trace.overhead_share", "share", Lower),
];

fn share(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

/// Per-layer values read from the public metric banks right after a
/// repetition that started from `reset_all()`, plus the `ServeReport`
/// fields of a serve repetition (zeros on a generate workload).
pub fn bank_values(rep: &Rep, threads: usize, v: &mut Values) {
    let wall_ns = (rep.wall_s * 1e9).max(1.0);
    let count = |name: &'static str, n: u64, v: &mut Values| {
        v.insert(name, n as f64);
    };
    count(
        "tensor.gemm.calls",
        m::gemm::REFERENCE_GEMMS.get() + m::gemm::BLOCKED_GEMMS.get(),
        v,
    );
    v.insert(
        "tensor.gemm.tiles_fast_share",
        share(m::gemm::TILES_FAST_PATH.get(), m::gemm::TILES_CHECKED.get()),
    );
    count(
        "tensor.pool.parallel_batches",
        m::pool::PARALLEL_BATCHES.get(),
        v,
    );
    count("tensor.pool.inline_items", m::pool::INLINE_ITEMS.get(), v);
    let busy: u64 = m::pool::THREAD_BUSY_NS
        .slots()
        .iter()
        .map(|c| c.get())
        .sum();
    v.insert(
        "tensor.pool.busy_share",
        busy as f64 / (threads as f64 * wall_ns),
    );
    v.insert(
        "tensor.pool.batch_latency_mean_us",
        m::pool::BATCH_LATENCY.mean_ns() as f64 / 1e3,
    );
    v.insert(
        "quant.tender.fast_chunk_share",
        share(
            m::kernel::CHUNKS_FAST_PATH.get(),
            m::kernel::CHUNKS_CHECKED.get(),
        ),
    );
    count(
        "quant.tender.overflow_events",
        m::kernel::OVERFLOW_EVENTS.get(),
        v,
    );
    count(
        "quant.tender.implicit_matmuls",
        m::kernel::IMPLICIT_MATMULS.get(),
        v,
    );
    count("model.engine.kv_requants", m::engine::KV_REQUANTS.get(), v);
    count(
        "tensor.arena.page_allocs",
        m::kv_arena::PAGE_ALLOCS.get(),
        v,
    );
    count("tensor.arena.cow_copies", m::kv_arena::COW_COPIES.get(), v);
    count(
        "tensor.arena.alloc_retries",
        m::kv_arena::ALLOC_RETRIES.get(),
        v,
    );
    count(
        "tensor.arena.evict_failures",
        m::kv_arena::EVICT_FAILURES.get(),
        v,
    );
    count(
        "tensor.arena.shard_contention",
        m::kv_arena::SHARD_CONTENTION.get(),
        v,
    );
    count(
        "tensor.arena.demote_queue_peak",
        m::kv_arena::DEMOTION_QUEUE_PEAK.get(),
        v,
    );
    v.insert("tensor.arena.reserved_over_used", rep.reserved_over_used);
    // Time inside the engine's own two spans over the repetition's wall:
    // on a serve workload the remainder is scheduler + drain + fork.
    let engine_ns = m::engine::PREFILL_TIME.total_ns() + m::engine::DECODE_STEP_TIME.total_ns();
    v.insert("serve.engine_busy_share", engine_ns as f64 / wall_ns);

    let report = match &rep.output {
        Output::Serve(r) => Some(r.as_ref()),
        Output::Tokens(_) => None,
    };
    let iterations = report.map_or(0, |r| r.iterations);
    count("serve.iterations", iterations, v);
    let per_iter = |x: f64| {
        if iterations == 0 {
            0.0
        } else {
            x / iterations as f64
        }
    };
    v.insert("serve.iter_ms_mean", per_iter(rep.wall_s * 1e3));
    v.insert(
        "serve.tokens_per_iter",
        per_iter(report.map_or(0.0, |_| rep.tokens as f64)),
    );
    v.insert("serve.req_latency_ms_p99", rep.req_p99_ms);
    count("serve.prefill_tokens", rep.prefill_tokens, v);
    let field = |name: &'static str, f: fn(&tender::serve::ServeReport) -> u64, v: &mut Values| {
        v.insert(name, report.map_or(0, f) as f64);
    };
    field("serve.queue_depth_max", |r| r.queue_depth_max, v);
    field("serve.batch_occupancy_max", |r| r.batch_occupancy_max, v);
    field("serve.latency_iters_p50", |r| r.latency_iters_p50, v);
    field("serve.latency_iters_p99", |r| r.latency_iters_p99, v);
    field("serve.admitted", |r| r.admitted, v);
    field("serve.rejected_queue", |r| r.rejected_queue, v);
    field("serve.rejected_kv", |r| r.rejected_kv, v);
    field("serve.expired", |r| r.expired, v);
    field("serve.truncated", |r| r.truncated, v);
    field("serve.failed", |r| r.failed, v);
    field("serve.kv_reserved_peak", |r| r.kv_reserved_peak, v);
    field("serve.kv_demoted_pages", |r| r.kv_demoted_pages, v);
    field("serve.kv_demoted_bytes", |r| r.kv_demoted_bytes, v);
    field("serve.decode_tokens", |r| r.decode_tokens, v);
}
