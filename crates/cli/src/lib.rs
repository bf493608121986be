//! Command implementations for `tender-cli`.
//!
//! Each subcommand is a function from parsed arguments to a printable
//! report string, so the binary stays a thin argument parser and the
//! behaviour is unit-testable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use tender::model::calibration::{token_batches, CorpusKind};
use tender::model::engine::{BatchEngine, DecodeSession, KvCacheMode, ModelRef};
use tender::model::{ArenaConfig, KvArena, ModelShape, QuantizedModel};
use tender::serve::{build_or_degrade, Scheduler, ServeConfig};
use tender::sim::accel::{speedups_over_with_hbm, AcceleratorKind, SimConfigError};
use tender::sim::config::TenderHwConfig;
use tender::sim::dataflow::Dataflow;
use tender::sim::dram::HbmConfig;
use tender::sim::generation::{decode_tokens_per_second, decode_utilization};
use tender::sim::workload::PrefillWorkload;
use tender::tensor::arena::DEFAULT_PAGE_ROWS;
use tender::{scheme_by_name, Experiment, ExperimentOptions};

/// Error for bad command-line input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// The model presets the CLI exposes, in paper order.
pub fn model_presets() -> Vec<ModelShape> {
    vec![
        ModelShape::opt_6_7b(),
        ModelShape::opt_13b(),
        ModelShape::opt_66b(),
        ModelShape::llama2_7b(),
        ModelShape::llama2_13b(),
        ModelShape::llama2_70b(),
        ModelShape::llama_7b(),
        ModelShape::llama_13b(),
        ModelShape::llama_65b(),
        ModelShape::bert_large(),
    ]
}

/// Resolves a model preset by (case-insensitive) name.
///
/// # Errors
///
/// Returns [`CliError`] listing the valid names when unknown.
pub fn model_by_name(name: &str) -> Result<ModelShape, CliError> {
    model_presets()
        .into_iter()
        .find(|m| m.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            err(format!(
                "unknown model '{name}'; valid: {}",
                model_presets()
                    .iter()
                    .map(|m| m.name.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
}

/// Parsed `--key value` flags.
pub type Flags = HashMap<String, String>;

/// Parses `args` (after the subcommand) into a flag map.
///
/// # Errors
///
/// Returns [`CliError`] on a flag without a value or a stray positional.
pub fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| err(format!("expected --flag, got '{a}'")))?;
        let value = it
            .next()
            .ok_or_else(|| err(format!("flag --{key} needs a value")))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn flag_parse<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, CliError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| err(format!("invalid value for --{key}: '{v}'"))),
    }
}

/// `tender-cli models` — lists the synthetic model presets.
pub fn cmd_models() -> String {
    let mut out = String::from("available model presets:\n");
    for m in model_presets() {
        out.push_str(&format!(
            "  {:<12} d_model {:>5}  ffn {:>6}  heads {:>3}  layers {:>3}  {:?}/{:?}\n",
            m.name, m.d_model, m.ffn_dim, m.heads, m.layers, m.activation, m.norm
        ));
    }
    out
}

/// `tender-cli schemes` — lists the quantization scheme names.
pub fn cmd_schemes() -> String {
    let names = [
        "FP32",
        "FP16",
        "per-tensor@B",
        "per-row@B",
        "per-column@B",
        "SmoothQuant@B",
        "LLM.int8",
        "ANT@B",
        "OliVe@B",
        "Tender@B",
        "Tender-all@B",
        "MSFP12",
        "MSFP12-OL",
        "SMX4",
        "MXFP4",
    ];
    format!(
        "available schemes (B = bit width, e.g. Tender@4):\n  {}\n",
        names.join("\n  ")
    )
}

/// `--model` / `--fast` / `--seed`: the eval-scale shape and experiment
/// options every model-running command starts from.
fn eval_setup(flags: &Flags) -> Result<(ModelShape, ExperimentOptions), CliError> {
    let model_name = flags
        .get("model")
        .ok_or_else(|| err("--model is required"))?;
    let base_shape = model_by_name(model_name)?;
    let (shape, opts) = if flag_parse(flags, "fast", false)? {
        (base_shape.scaled_for_eval(32, 2), ExperimentOptions::fast())
    } else {
        (base_shape.eval_preset(), ExperimentOptions::standard())
    };
    let seed = flag_parse(flags, "seed", opts.seed)?;
    Ok((shape, opts.with_seed(seed)))
}

/// The KV-cache flags `generate` and `serve` share.
struct KvFlags {
    /// `--kv-cache`.
    mode: KvCacheMode,
    /// `--kv-page-rows`.
    page_rows: usize,
    /// `--kv-arena-bytes` (`u64::MAX` = unbounded).
    arena_bytes: u64,
    /// `--kv-watermark`.
    watermark: f64,
}

fn kv_flags(flags: &Flags) -> Result<KvFlags, CliError> {
    let name = flags.get("kv-cache").map(String::as_str).unwrap_or("f32");
    let kv = KvFlags {
        mode: KvCacheMode::parse(name).ok_or_else(|| {
            err(format!(
                "unknown --kv-cache mode '{name}' (f32, int8, int4)"
            ))
        })?,
        page_rows: flag_parse(flags, "kv-page-rows", DEFAULT_PAGE_ROWS)?,
        arena_bytes: flag_parse(flags, "kv-arena-bytes", u64::MAX)?,
        watermark: flag_parse(flags, "kv-watermark", 1.0)?,
    };
    if kv.page_rows == 0 {
        return Err(err("--kv-page-rows must be at least 1"));
    }
    if !(kv.watermark > 0.0 && kv.watermark <= 1.0) {
        return Err(err("--kv-watermark must be in (0, 1]"));
    }
    Ok(kv)
}

/// `tender-cli ppl --model M --scheme S [--seq N] [--seed N] [--fast true]`
/// — proxy perplexity of a scheme on a scaled synthetic model.
///
/// # Errors
///
/// Returns [`CliError`] on unknown model/scheme or bad flags.
pub fn cmd_ppl(flags: &Flags) -> Result<String, CliError> {
    let (shape, mut opts) = eval_setup(flags)?;
    let scheme_name = flags
        .get("scheme")
        .ok_or_else(|| err("--scheme is required"))?;
    opts.seq_len = flag_parse(flags, "seq", opts.seq_len)?;

    let scheme = scheme_by_name(scheme_name)
        .ok_or_else(|| err(format!("unknown scheme '{scheme_name}'")))?;
    let exp = Experiment::new(&shape, opts);
    let base_wiki = exp.reference_perplexity(CorpusKind::Wiki);
    let base_ptb = exp.reference_perplexity(CorpusKind::Ptb);
    let (wiki, ptb) = exp.perplexities_of(scheme);
    Ok(format!(
        "model {} (eval scale d={}, {} layers), scheme {}\n\
         proxy ppl   Wiki: {:.2} (FP32 base {:.2})\n\
         proxy ppl   PTB:  {:.2} (FP32 base {:.2})\n",
        shape.name, shape.d_model, shape.layers, scheme_name, wiki, base_wiki, ptb, base_ptb
    ))
}

/// Builds an [`HbmConfig`] from optional `--hbm-*` overrides on top of the
/// stock HBM2 stack.
///
/// # Errors
///
/// Returns [`CliError`] on a non-numeric value; degenerate *combinations*
/// are caught later by `HbmConfig::validate` via the simulator.
pub fn hbm_config_from_flags(flags: &Flags) -> Result<HbmConfig, CliError> {
    let base = HbmConfig::hbm2();
    Ok(HbmConfig {
        channels: flag_parse(flags, "hbm-channels", base.channels)?,
        banks_per_channel: flag_parse(flags, "hbm-banks", base.banks_per_channel)?,
        row_bytes: flag_parse(flags, "hbm-row-bytes", base.row_bytes)?,
        burst_bytes: flag_parse(flags, "hbm-burst-bytes", base.burst_bytes)?,
        bus_bytes_per_cycle: flag_parse(flags, "hbm-bus-bytes", base.bus_bytes_per_cycle)?,
        t_rp: flag_parse(flags, "hbm-trp", base.t_rp)?,
        t_rcd: flag_parse(flags, "hbm-trcd", base.t_rcd)?,
        t_cas: flag_parse(flags, "hbm-tcas", base.t_cas)?,
        t_refi: flag_parse(flags, "hbm-trefi", base.t_refi)?,
        t_rfc: flag_parse(flags, "hbm-trfc", base.t_rfc)?,
    })
}

/// Builds a [`TenderHwConfig`] from optional `--sa-dim` / `--vpu-lanes`
/// overrides on top of the paper configuration.
///
/// # Errors
///
/// Returns [`CliError`] on a non-numeric value; degenerate values are
/// caught by `TenderHwConfig::validate` via the simulator.
pub fn hw_config_from_flags(flags: &Flags) -> Result<TenderHwConfig, CliError> {
    let base = TenderHwConfig::paper();
    Ok(TenderHwConfig {
        sa_dim: flag_parse(flags, "sa-dim", base.sa_dim)?,
        vpu_lanes: flag_parse(flags, "vpu-lanes", base.vpu_lanes)?,
        ..base
    })
}

/// `tender-cli simulate --model M [--seq N] [--groups G] [--sa-dim D]
/// [--vpu-lanes L] [--hbm-* V]` — iso-area accelerator comparison on the
/// full-size model (Fig. 10 style).
///
/// # Errors
///
/// Returns [`CliError`] on unknown model, bad flags, or a degenerate
/// HBM/hardware configuration (reported with the validator's message, not
/// a panic).
pub fn cmd_simulate(flags: &Flags) -> Result<String, CliError> {
    let model_name = flags
        .get("model")
        .ok_or_else(|| err("--model is required"))?;
    let shape = model_by_name(model_name)?;
    let seq: usize = flag_parse(flags, "seq", 2048)?;
    let groups: usize = flag_parse(flags, "groups", 8)?;
    let hbm = hbm_config_from_flags(flags)?;
    let hw = hw_config_from_flags(flags)?;
    let w = PrefillWorkload::new(&shape, seq);
    let speedups = speedups_over_with_hbm(AcceleratorKind::Ant, &hw, groups, &hbm, &w).map_err(
        |e| match e {
            SimConfigError::Hbm(e) => err(format!("invalid HBM configuration: {e}")),
            SimConfigError::Hw(e) => err(format!("invalid hardware configuration: {e}")),
        },
    )?;
    let mut out = format!(
        "prefill {} @ seq {seq}, batch 1, {groups} channel groups (iso-area, speedup over ANT):\n",
        shape.name
    );
    for (kind, s) in speedups {
        out.push_str(&format!("  {:<8} {s:.2}x\n", kind.label()));
    }
    Ok(out)
}

/// `tender-cli decode --model M [--cache N] [--batch B]` — generation-stage
/// throughput and utilization across dataflows (§V-A / §VI-D).
///
/// # Errors
///
/// Returns [`CliError`] on unknown model or bad flags.
pub fn cmd_decode(flags: &Flags) -> Result<String, CliError> {
    let model_name = flags
        .get("model")
        .ok_or_else(|| err("--model is required"))?;
    let shape = model_by_name(model_name)?;
    let cache: usize = flag_parse(flags, "cache", 2048)?;
    let batch: usize = flag_parse(flags, "batch", 1)?;
    let hw = TenderHwConfig::paper();
    let mut out = format!("decode {} @ cache {cache}, batch {batch}:\n", shape.name);
    for df in [Dataflow::OutputStationary, Dataflow::WeightStationary] {
        let tps = decode_tokens_per_second(&hw, &shape, cache, batch, df);
        let util = decode_utilization(&hw, &shape, cache, batch, df);
        out.push_str(&format!(
            "  {:<18} {tps:>10.1} tok/s   array utilization {:>5.1}%\n",
            df.label(),
            util * 100.0
        ));
    }
    Ok(out)
}

/// `tender-cli generate --model M [--scheme S] [--kv-cache f32|int8|int4]
/// [--kv-page-rows N] [--kv-arena-bytes N] [--kv-watermark F]
/// [--prompt N] [--generate N] [--batch B] [--seed N] [--fast true]` —
/// greedy generation through the prefill + KV-cache decode engine on a
/// scaled synthetic model.
///
/// With the default `f32` cache, decode is bit-identical to a full-sequence
/// forward pass for every weight-quantizing scheme, so the generated tokens
/// match what repeated full forwards would produce — at O(1) work per step
/// instead of O(n). Quantized cache modes (`int8`, `int4` with the paper's
/// power-of-two groups) trade that bit-parity for a packed cache; they stay
/// bit-deterministic at any thread count.
///
/// Cache storage is paged: `--kv-page-rows` sets the rows per page, and
/// `--kv-arena-bytes` caps the arena. Past `--kv-watermark × capacity`,
/// cold sealed pages are demoted f32→int8→int4 before any hard eviction.
/// The whole batch shares **one** arena under a single byte budget
/// (demotion deferred to deterministic iteration boundaries, so output
/// stays byte-identical at any thread count).
/// When the arena is bounded or the watermark is below 1, a `kv tiers:`
/// line reports the per-tier page/byte split and the demotion counters.
///
/// # Errors
///
/// Returns [`CliError`] on unknown model/scheme/cache mode, a zero
/// `--prompt`, `--batch`, or `--kv-page-rows`, a `--kv-watermark` outside
/// `(0, 1]`, or a rollout longer than the model's context window.
pub fn cmd_generate(flags: &Flags) -> Result<String, CliError> {
    let (shape, opts) = eval_setup(flags)?;
    let prompt_len: usize = flag_parse(flags, "prompt", 8)?;
    let steps: usize = flag_parse(flags, "generate", 8)?;
    let batch: usize = flag_parse(flags, "batch", 1)?;
    if prompt_len == 0 {
        return Err(err("--prompt must be at least 1"));
    }
    if batch == 0 {
        return Err(err("--batch must be at least 1"));
    }
    if prompt_len + steps > shape.max_seq {
        return Err(err(format!(
            "prompt ({prompt_len}) + generate ({steps}) exceeds the context window ({})",
            shape.max_seq
        )));
    }

    let scheme_name = flags.get("scheme").map(String::as_str).unwrap_or("FP32");
    let kv = kv_flags(flags)?;
    let kv_mode = kv.mode;
    // Every session shares one arena under a single byte budget.
    // Demotion is deferred to engine iteration boundaries (drained in
    // clock order), so the shared budget cannot make demotion order
    // depend on cross-session allocation interleaving under par_map.
    let arena_cfg = ArenaConfig {
        page_rows: kv.page_rows,
        capacity_bytes: (kv.arena_bytes != u64::MAX).then_some(kv.arena_bytes),
        watermark: kv.watermark,
        ..ArenaConfig::default()
    };
    let bounded_arena = arena_cfg.capacity_bytes.is_some() || kv.watermark < 1.0;
    let exp = Experiment::new(&shape, opts);
    let seed = exp.options().seed;
    let prompts = token_batches(
        CorpusKind::Wiki,
        shape.vocab,
        batch,
        prompt_len,
        seed ^ 0x6E,
    );

    // The quantized model must outlive the sessions borrowing it.
    let quantized: Option<QuantizedModel> = if scheme_name.eq_ignore_ascii_case("reference") {
        None
    } else {
        let scheme = scheme_by_name(scheme_name)
            .ok_or_else(|| err(format!("unknown scheme '{scheme_name}'")))?;
        Some(exp.quantize(scheme))
    };
    let model: ModelRef<'_> = match &quantized {
        Some(qm) => ModelRef::from(qm),
        None => ModelRef::from(exp.reference()),
    };

    // A byte budget that cannot hold the prompt even at the int4 floor is
    // a usage error, not a panic: probe one prefill against the same
    // config (footprint depends only on prompt length, so one probe
    // decides for the whole batch).
    if arena_cfg.capacity_bytes.is_some() {
        let probe = KvArena::new(arena_cfg);
        let mut s = DecodeSession::with_arena(model, kv_mode, &probe);
        if let Err(e) = s.try_prefill(&prompts[0]) {
            return Err(err(format!(
                "--kv-arena-bytes {} cannot hold the \
                 {prompt_len}-token prompt even fully demoted: {e}",
                kv.arena_bytes
            )));
        }
    }

    let arena = KvArena::new(arena_cfg);
    let sessions = prompts
        .iter()
        .map(|_| DecodeSession::with_arena(model, kv_mode, &arena))
        .collect();
    let mut engine = BatchEngine::new(sessions);
    let generated = engine
        .generate_greedy(&prompts, steps)
        .map_err(|e| err(e.to_string()))?;
    let sessions = engine.into_sessions();

    let mut out = format!(
        "generate {} (eval scale d={}, {} layers), scheme {scheme_name}, kv-cache {}\n\
         prompt {prompt_len} tokens, {steps} decode steps, batch {batch}\n",
        shape.name,
        shape.d_model,
        shape.layers,
        kv_mode.label()
    );
    for (i, (prompt, tokens)) in prompts.iter().zip(&generated).enumerate() {
        let p: Vec<String> = prompt.iter().map(|t| t.to_string()).collect();
        let g: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        out.push_str(&format!(
            "  session {i}: {} => {}\n",
            p.join(" "),
            g.join(" ")
        ));
    }
    if let Some(s) = sessions.first() {
        out.push_str(&format!(
            "per-step MACs at cache {}: {}   KV cache ({}): {} bytes resident, {} allocated\n",
            s.len(),
            s.last_step_macs(),
            s.cache().mode().label(),
            s.cache().bytes(),
            s.cache().allocated_bytes()
        ));
        if s.cache().requants() > 0 {
            out.push_str(&format!("runtime requants: {}\n", s.cache().requants()));
        }
        if bounded_arena {
            let t = s.cache().tier_stats();
            let a = s.arena().stats();
            out.push_str(&format!(
                "kv tiers: f32 {}p/{}B, int8 {}p/{}B, int4 {}p/{}B; \
                 demoted {}+{}, evict failures {}\n",
                t.pages[0],
                t.resident[0],
                t.pages[1],
                t.resident[1],
                t.pages[2],
                t.resident[2],
                a.demoted_int8,
                a.demoted_int4,
                a.evict_failures,
            ));
        }
    }
    if bounded_arena {
        out.push_str(&format!(
            "kv shared arena: {batch} sessions under one budget, {} bytes allocated; \
             alloc retries {}, demotion queue {}\n",
            arena.allocated_bytes(),
            arena.stats().alloc_retries,
            arena.demotion_queue_len(),
        ));
    }
    Ok(out)
}

/// `tender-cli serve --model M [--scheme S] [--requests N]
/// [--arrival-seed N] [--deadline-steps N] [--queue-cap N]
/// [--kv-budget-bytes N] [--kv-page-rows N] [--kv-arena-bytes N]
/// [--kv-watermark F] [--shared-prefix N] [--batch B] [--prefill-chunk N]
/// [--kv-cache f32|int8|int4] [--seed N] [--fast true]` — run the
/// continuous-batching scheduler over seeded synthetic traffic.
///
/// Admission is priced at page granularity (`--kv-page-rows` rows per
/// page) and grows per step, `--kv-arena-bytes` caps the shared
/// copy-on-write arena backing `--shared-prefix` tokens of common prompt
/// prefix, and `--kv-budget-bytes` bounds the fleet's total grant. Past
/// `--kv-watermark × --kv-arena-bytes`, cold sealed pages are requantized
/// by the iteration-boundary drain (off the per-step critical path), and
/// the freed bytes flow back into the admission budget.
///
/// The transcript on stdout is a pure function of the flags and the fault
/// seed — byte-identical at any `--threads` count. Wall-clock latency
/// percentiles and tokens/s go to the `serve` section of the
/// `--metrics-json` report only.
///
/// If quantization panics under an injected fault, the server degrades to
/// the FP32 reference model (counted in `faults.degraded_sites` /
/// `faults.fallback_fp16`) instead of dying before taking a request.
///
/// # Errors
///
/// Returns [`CliError`] on unknown model/scheme/cache mode or a zero
/// `--requests`, `--queue-cap`, `--batch`, or `--prefill-chunk`.
pub fn cmd_serve(flags: &Flags) -> Result<String, CliError> {
    let (shape, opts) = eval_setup(flags)?;
    let kv = kv_flags(flags)?;

    let mut cfg = ServeConfig::new(
        flag_parse(flags, "requests", 16)?,
        flag_parse(flags, "arrival-seed", 42)?,
    );
    cfg.deadline_steps = flag_parse(flags, "deadline-steps", cfg.deadline_steps)?;
    cfg.queue_cap = flag_parse(flags, "queue-cap", cfg.queue_cap)?;
    cfg.kv_budget_bytes = flag_parse(flags, "kv-budget-bytes", cfg.kv_budget_bytes)?;
    cfg.kv_mode = kv.mode;
    cfg.page_rows = kv.page_rows;
    cfg.kv_arena_bytes = kv.arena_bytes;
    cfg.kv_watermark = kv.watermark;
    cfg.shared_prefix = flag_parse(flags, "shared-prefix", cfg.shared_prefix)?;
    cfg.max_batch = flag_parse(flags, "batch", cfg.max_batch)?;
    cfg.prefill_chunk = flag_parse(flags, "prefill-chunk", cfg.prefill_chunk)?;
    for (flag, value) in [
        ("requests", cfg.requests),
        ("queue-cap", cfg.queue_cap),
        ("batch", cfg.max_batch),
        ("prefill-chunk", cfg.prefill_chunk),
    ] {
        if value == 0 {
            return Err(err(format!("--{flag} must be at least 1")));
        }
    }

    let scheme_name = flags.get("scheme").map(String::as_str).unwrap_or("FP32");
    let exp = Experiment::new(&shape, opts);
    let mut degraded_setup = false;
    // The quantized model must outlive the scheduler's sessions. A panic
    // during calibration/quantization (e.g. an injected fault) degrades
    // the server to the FP32 reference model instead of killing it.
    let quantized: Option<QuantizedModel> = if scheme_name.eq_ignore_ascii_case("reference") {
        None
    } else {
        let scheme = scheme_by_name(scheme_name)
            .ok_or_else(|| err(format!("unknown scheme '{scheme_name}'")))?;
        let built = build_or_degrade(|| exp.quantize(scheme));
        if built.is_none() {
            degraded_setup = true;
        }
        built
    };
    let model: ModelRef<'_> = match &quantized {
        Some(qm) => ModelRef::from(qm),
        None => ModelRef::from(exp.reference()),
    };

    let report = Scheduler::new(model, cfg).run();
    let mut out = format!(
        "serve {} (eval scale d={}, {} layers), scheme {scheme_name}\n",
        shape.name, shape.d_model, shape.layers
    );
    if degraded_setup {
        out.push_str("setup degraded: quantization failed, serving on the FP32 reference model\n");
    }
    out.push_str(&report.transcript);
    Ok(out)
}

/// Top-level usage text.
pub fn usage() -> String {
    "tender-cli — Tender (ISCA 2024) reproduction toolkit\n\
     \n\
     USAGE: tender-cli [--threads N] <command> [--flag value ...]\n\
     \n\
     GLOBAL FLAGS:\n\
     \x20 --threads N                     size the shared worker pool (default:\n\
     \x20                                 TENDER_THREADS env or all cores);\n\
     \x20                                 results are identical at any N\n\
     \x20 --metrics-json PATH             write a structured metrics report\n\
     \x20                                 (counters + timings) after the run\n\
     \x20 --fault-seed N                  install the default deterministic\n\
     \x20                                 fault plan under seed N (same seed,\n\
     \x20                                 same faults, same output)\n\
     \x20 --fault-plan SPEC               override per-site fault rates, e.g.\n\
     \x20                                 blob=0.25,anan=0.05 (sites: blob wnan\n\
     \x20                                 anan dram pool exp sched)\n\
     \n\
     COMMANDS:\n\
     \x20 models                          list synthetic model presets\n\
     \x20 schemes                         list quantization schemes\n\
     \x20 ppl      --model M --scheme S   proxy perplexity on a scaled model\n\
     \x20          [--seq N] [--seed N] [--fast true]\n\
     \x20 simulate --model M [--seq N]    iso-area accelerator speedups\n\
     \x20          [--groups G] [--sa-dim D] [--vpu-lanes L]\n\
     \x20          [--hbm-channels C] [--hbm-banks B]\n\
     \x20          [--hbm-row-bytes N] [--hbm-burst-bytes N] [--hbm-bus-bytes N]\n\
     \x20          [--hbm-trp N] [--hbm-trcd N] [--hbm-tcas N]\n\
     \x20          [--hbm-trefi N] [--hbm-trfc N]\n\
     \x20 decode   --model M [--cache N]  generation-stage throughput\n\
     \x20          [--batch B]             (analytic hardware model)\n\
     \x20 generate --model M [--scheme S] greedy generation through the\n\
     \x20          [--prompt N]            prefill + KV-cache decode engine\n\
     \x20          [--kv-cache f32|int8|int4]  cache storage precision\n\
     \x20          [--kv-page-rows N]      cached rows per arena page\n\
     \x20          [--kv-arena-bytes N]    arena capacity; cold pages\n\
     \x20          [--kv-watermark F]      demote f32->int8->int4 past\n\
     \x20                                  F x capacity (default 1.0)\n\
     \x20          [--generate N] [--batch B] [--seed N] [--fast true]\n\
     \x20 serve    --model M [--scheme S]  continuous-batching scheduler over\n\
     \x20          [--requests N]          seeded synthetic traffic: admission\n\
     \x20          [--arrival-seed N]      control, chunked prefill, deadlines,\n\
     \x20          [--deadline-steps N]    per-request failure isolation; the\n\
     \x20          [--queue-cap N]         transcript is byte-identical at any\n\
     \x20          [--kv-budget-bytes N]   thread count (latency percentiles\n\
     \x20          [--kv-page-rows N]      and tokens/s go to --metrics-json);\n\
     \x20          [--kv-arena-bytes N]    admission is priced in pages and a\n\
     \x20          [--kv-watermark F]      common prompt prefix is prefilled\n\
     \x20          [--shared-prefix N]     once and shared copy-on-write;\n\
     \x20          [--batch B]             cold pages requantize at the\n\
     \x20                                  boundary drain past F x capacity\n\
     \x20          [--prefill-chunk N] [--kv-cache f32|int8|int4]\n\
     \x20          [--seed N] [--fast true]\n"
        .to_string()
}

/// Strips a global `--threads N` flag (valid anywhere in `args`) and returns
/// the remaining arguments plus the requested pool size, if any.
///
/// # Errors
///
/// Returns [`CliError`] when the value is missing, non-numeric, or zero.
pub fn extract_threads(args: &[String]) -> Result<(Vec<String>, Option<usize>), CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut threads = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            let v = it
                .next()
                .ok_or_else(|| err("flag --threads needs a value"))?;
            let n: usize = v
                .parse()
                .map_err(|_| err(format!("invalid value for --threads: '{v}'")))?;
            if n == 0 {
                return Err(err("--threads must be at least 1"));
            }
            threads = Some(n);
        } else {
            rest.push(a.clone());
        }
    }
    Ok((rest, threads))
}

/// Strips a global `--metrics-json PATH` flag (valid anywhere in `args`)
/// and returns the remaining arguments plus the report path, if any.
///
/// # Errors
///
/// Returns [`CliError`] when the value is missing.
pub fn extract_metrics_json(args: &[String]) -> Result<(Vec<String>, Option<String>), CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--metrics-json" {
            let v = it
                .next()
                .ok_or_else(|| err("flag --metrics-json needs a path"))?;
            path = Some(v.clone());
        } else {
            rest.push(a.clone());
        }
    }
    Ok((rest, path))
}

/// Strips global `--fault-seed N` / `--fault-plan SPEC` flags (valid
/// anywhere in `args`) and returns the remaining arguments plus the fault
/// plan they describe, if any.
///
/// `--fault-seed` alone selects the default plan (bit-flipped calibration
/// blobs, NaN calibration activations, DRAM bit errors) under that seed;
/// `--fault-plan` overrides per-site rates (e.g. `blob=0.25,anan=0.05`)
/// and is seeded by `--fault-seed` (default 0).
///
/// # Errors
///
/// Returns [`CliError`] on a missing value, a non-numeric seed, or an
/// unparsable plan spec.
pub fn extract_fault_plan(
    args: &[String],
) -> Result<(Vec<String>, Option<tender::faults::FaultPlan>), CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut seed: Option<u64> = None;
    let mut spec: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("flag {flag} needs a value")))
        };
        match a.as_str() {
            "--fault-seed" => {
                let v = value("--fault-seed")?;
                seed = Some(
                    v.parse()
                        .map_err(|_| err(format!("invalid value for --fault-seed: '{v}'")))?,
                );
            }
            "--fault-plan" => spec = Some(value("--fault-plan")?),
            _ => rest.push(a.clone()),
        }
    }
    let plan = match (seed, spec) {
        (seed, Some(spec)) => Some(
            tender::faults::FaultPlan::parse(seed.unwrap_or(0), &spec)
                .map_err(|e| err(format!("invalid --fault-plan: {e}")))?,
        ),
        (Some(seed), None) => Some(tender::faults::FaultPlan::default_plan(seed)),
        (None, None) => None,
    };
    Ok((rest, plan))
}

/// A subcommand: its name, the `--flag`s it reads, and its body.
type Command = (
    &'static str,
    &'static [&'static str],
    fn(&Flags) -> Result<String, CliError>,
);

/// Every subcommand [`run`] dispatches. The flag lists are what
/// [`reject_unknown_flags`] enforces and what [`usage`] documents (a test
/// keeps the two equal).
const COMMANDS: &[Command] = &[
    ("models", &[], |_| Ok(cmd_models())),
    ("schemes", &[], |_| Ok(cmd_schemes())),
    ("ppl", &["model", "scheme", "seq", "seed", "fast"], cmd_ppl),
    (
        "simulate",
        &[
            "model",
            "seq",
            "groups",
            "sa-dim",
            "vpu-lanes",
            "hbm-channels",
            "hbm-banks",
            "hbm-row-bytes",
            "hbm-burst-bytes",
            "hbm-bus-bytes",
            "hbm-trp",
            "hbm-trcd",
            "hbm-tcas",
            "hbm-trefi",
            "hbm-trfc",
        ],
        cmd_simulate,
    ),
    ("decode", &["model", "cache", "batch"], cmd_decode),
    (
        "generate",
        &[
            "model",
            "scheme",
            "prompt",
            "kv-cache",
            "kv-page-rows",
            "kv-arena-bytes",
            "kv-watermark",
            "generate",
            "batch",
            "seed",
            "fast",
        ],
        cmd_generate,
    ),
    (
        "serve",
        &[
            "model",
            "scheme",
            "requests",
            "arrival-seed",
            "deadline-steps",
            "queue-cap",
            "kv-budget-bytes",
            "kv-page-rows",
            "kv-arena-bytes",
            "kv-watermark",
            "shared-prefix",
            "batch",
            "prefill-chunk",
            "kv-cache",
            "seed",
            "fast",
        ],
        cmd_serve,
    ),
    ("help", &[], |_| Ok(usage())),
];

/// Rejects any parsed flag `cmd` does not read — a typo such as
/// `--kv-cahce int8` would otherwise run with the default silently.
fn reject_unknown_flags(cmd: &str, known: &[&str], flags: &Flags) -> Result<(), CliError> {
    let Some(unknown) = flags.keys().filter(|k| !known.contains(&k.as_str())).min() else {
        return Ok(());
    };
    Err(err(if known.is_empty() {
        format!("unknown flag --{unknown}: '{cmd}' takes no flags")
    } else {
        format!(
            "unknown flag --{unknown} for '{cmd}'; accepted: --{}",
            known.join(", --")
        )
    }))
}

/// Dispatches a full argument vector (without the program name).
///
/// When `--metrics-json PATH` is given, `tender_metrics::report()` — every
/// metric of every subsystem, as recorded during the run — is written to
/// `PATH` after the command completes.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, bad arguments, or an
/// unwritable metrics path.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (args, threads) = extract_threads(args)?;
    let (args, metrics_path) = extract_metrics_json(&args)?;
    let (args, fault_plan) = extract_fault_plan(&args)?;
    if let Some(n) = threads {
        tender::pool::set_threads(n);
    }
    // Installed before dispatch so every injection site sees the plan for
    // the whole command; like the pool size, it is process-lifetime state.
    if let Some(plan) = fault_plan {
        tender::faults::install(plan);
    }
    let (cmd, rest) = args.split_first().ok_or_else(|| err(usage()))?;
    let name = match cmd.as_str() {
        "--help" | "-h" => "help",
        other => other,
    };
    let (_, known, body) = COMMANDS
        .iter()
        .find(|c| c.0 == name)
        .ok_or_else(|| err(format!("unknown command '{cmd}'\n\n{}", usage())))?;
    let flags = parse_flags(rest)?;
    reject_unknown_flags(name, known, &flags)?;
    let out = body(&flags)?;
    if let Some(path) = metrics_path {
        let json = tender::metrics::report().to_json();
        std::fs::write(&path, json)
            .map_err(|e| err(format!("cannot write metrics report to '{path}': {e}")))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn models_lists_all_presets() {
        let out = cmd_models();
        for name in ["OPT-6.7B", "Llama-2-70B", "BERT-Large"] {
            assert!(out.contains(name), "missing {name}");
        }
    }

    #[test]
    fn model_lookup_is_case_insensitive() {
        assert_eq!(model_by_name("opt-6.7b").unwrap().name, "OPT-6.7B");
        assert!(model_by_name("GPT-5").is_err());
    }

    #[test]
    fn flag_parsing() {
        let f = parse_flags(&args(&["--model", "OPT-6.7B", "--seq", "48"])).unwrap();
        assert_eq!(f.get("model").map(String::as_str), Some("OPT-6.7B"));
        assert_eq!(f.get("seq").map(String::as_str), Some("48"));
        assert!(parse_flags(&args(&["--model"])).is_err());
        assert!(parse_flags(&args(&["stray"])).is_err());
    }

    #[test]
    fn ppl_command_runs_fast_mode() {
        let f = parse_flags(&args(&[
            "--model", "OPT-6.7B", "--scheme", "Tender@8", "--fast", "true",
        ]))
        .unwrap();
        let out = cmd_ppl(&f).expect("runs");
        assert!(out.contains("Wiki"));
        assert!(out.contains("Tender@8"));
    }

    #[test]
    fn ppl_requires_model_and_scheme() {
        assert!(cmd_ppl(&Flags::new()).is_err());
        let f = parse_flags(&args(&["--model", "OPT-6.7B", "--scheme", "nope"])).unwrap();
        assert!(cmd_ppl(&f).is_err());
    }

    #[test]
    fn simulate_reports_all_accelerators() {
        let f = parse_flags(&args(&["--model", "OPT-6.7B", "--seq", "512"])).unwrap();
        let out = cmd_simulate(&f).expect("runs");
        for label in ["Tender", "ANT", "OliVe", "OLAccel"] {
            assert!(out.contains(label), "missing {label}");
        }
    }

    #[test]
    fn decode_reports_both_dataflows() {
        let f = parse_flags(&args(&["--model", "Llama-2-7B", "--batch", "4"])).unwrap();
        let out = cmd_decode(&f).expect("runs");
        assert!(out.contains("output-stationary"));
        assert!(out.contains("weight-stationary"));
    }

    #[test]
    fn generate_runs_and_is_deterministic() {
        let f = parse_flags(&args(&[
            "--model",
            "OPT-6.7B",
            "--scheme",
            "Tender@8",
            "--prompt",
            "6",
            "--generate",
            "4",
            "--batch",
            "2",
            "--fast",
            "true",
        ]))
        .unwrap();
        let a = cmd_generate(&f).expect("runs");
        let b = cmd_generate(&f).expect("runs again");
        assert_eq!(a, b, "same flags must generate the same tokens");
        assert!(a.contains("session 0:"));
        assert!(a.contains("session 1:"));
        assert!(a.contains("per-step MACs"));
        assert!(a.contains("KV cache (f32):"));
        assert!(a.contains("bytes resident"));
    }

    #[test]
    fn generate_quantized_kv_cache_is_deterministic_and_smaller() {
        let base = [
            "--model",
            "OPT-6.7B",
            "--scheme",
            "reference",
            "--prompt",
            "8",
            "--generate",
            "8",
            "--fast",
            "true",
        ];
        let resident = |kv: &str| -> (String, u64) {
            let mut a: Vec<&str> = base.to_vec();
            a.extend_from_slice(&["--kv-cache", kv]);
            let out = cmd_generate(&parse_flags(&args(&a)).unwrap()).expect("runs");
            let bytes = out
                .lines()
                .find(|l| l.contains("KV cache ("))
                .and_then(|l| l.rsplit(": ").next())
                .and_then(|s| s.split(' ').next())
                .and_then(|s| s.parse().ok())
                .expect("resident bytes in output");
            (out, bytes)
        };
        let (f32_out, f32_bytes) = resident("f32");
        let (int8_out, int8_bytes) = resident("int8");
        let (int8_again, _) = resident("int8");
        assert_eq!(int8_out, int8_again, "int8 cache must be deterministic");
        assert!(int8_out.contains("kv-cache int8"));
        // The acceptance bar: INT8 resident ≤ 0.3× f32 at equal length.
        assert!(
            int8_bytes * 10 <= f32_bytes * 3,
            "int8 {int8_bytes} vs f32 {f32_bytes}: ratio above 0.3"
        );
        assert!(f32_out.contains("kv-cache f32"));
    }

    #[test]
    fn generate_bounded_arena_demotes_and_reports_tiers() {
        let base = [
            "--model",
            "OPT-6.7B",
            "--prompt",
            "12",
            "--generate",
            "4",
            "--fast",
            "true",
            "--kv-page-rows",
            "2",
            "--kv-watermark",
            "0.25",
        ];
        let f = parse_flags(&args(&base)).unwrap();
        let a = cmd_generate(&f).expect("runs");
        let b = cmd_generate(&f).expect("runs again");
        assert_eq!(a, b, "bounded arena must stay deterministic");
        assert!(a.contains("kv tiers:"), "{a}");
        // An unbounded watermark-1.0 arena never demotes and reports no
        // tier line.
        let plain = cmd_generate(&parse_flags(&args(&base[..10])).unwrap()).expect("runs");
        assert!(!plain.contains("kv tiers:"), "{plain}");
    }

    #[test]
    fn generate_shared_arena_is_deterministic_and_reports_budget() {
        // One capped arena for the whole batch: the batch iteration with
        // boundary-drained demotion must be byte-identical across runs,
        // and the shared-budget report line must appear.
        let base = [
            "--model",
            "OPT-6.7B",
            "--prompt",
            "12",
            "--generate",
            "6",
            "--batch",
            "3",
            "--fast",
            "true",
            "--kv-page-rows",
            "2",
            "--kv-watermark",
            "0.5",
            "--kv-arena-bytes",
            "98304",
        ];
        let f = parse_flags(&args(&base)).unwrap();
        let a = cmd_generate(&f).expect("runs");
        let b = cmd_generate(&f).expect("runs again");
        assert_eq!(a, b, "shared capped arena must stay deterministic");
        assert!(
            a.contains("kv shared arena: 3 sessions under one budget"),
            "{a}"
        );
        assert!(a.contains("evict failures 0"), "{a}");
    }

    #[test]
    fn generate_rejects_bad_watermark_and_zero_page_rows() {
        let base = ["--model", "OPT-6.7B", "--fast", "true"];
        let mut a: Vec<&str> = base.to_vec();
        a.extend_from_slice(&["--kv-watermark", "1.5"]);
        let e = cmd_generate(&parse_flags(&args(&a)).unwrap()).expect_err("out of range");
        assert!(e.to_string().contains("--kv-watermark"));
        let mut a: Vec<&str> = base.to_vec();
        a.extend_from_slice(&["--kv-page-rows", "0"]);
        let e = cmd_generate(&parse_flags(&args(&a)).unwrap()).expect_err("zero page rows");
        assert!(e.to_string().contains("--kv-page-rows"));
    }

    #[test]
    fn generate_rejects_arena_budget_below_prompt_floor() {
        // 4 KiB cannot hold a 12-token prompt even fully demoted to int4:
        // the probe prefill must surface a clean usage error, not a panic.
        let f = parse_flags(&args(&[
            "--model",
            "OPT-6.7B",
            "--prompt",
            "12",
            "--generate",
            "4",
            "--fast",
            "true",
            "--kv-page-rows",
            "2",
            "--kv-arena-bytes",
            "4096",
            "--kv-watermark",
            "0.5",
        ]))
        .unwrap();
        let e = cmd_generate(&f).expect_err("infeasible byte budget");
        let msg = e.to_string();
        assert!(
            msg.contains("--kv-arena-bytes") && msg.contains("fully demoted"),
            "{msg}"
        );
    }

    #[test]
    fn serve_shared_prefix_flag_is_deterministic_and_reported() {
        let f = parse_flags(&args(&[
            "--model",
            "OPT-6.7B",
            "--scheme",
            "reference",
            "--requests",
            "4",
            "--shared-prefix",
            "8",
            "--kv-page-rows",
            "4",
            "--fast",
            "true",
        ]))
        .unwrap();
        let a = cmd_serve(&f).expect("runs");
        let b = cmd_serve(&f).expect("runs again");
        assert_eq!(a, b, "shared-prefix serve must stay deterministic");
        assert!(a.contains("shared prefix: 8 tokens"), "{a}");
        assert!(a.contains("page rows 4"), "{a}");
    }

    #[test]
    fn generate_rejects_unknown_kv_cache_mode() {
        let f = parse_flags(&args(&[
            "--model",
            "OPT-6.7B",
            "--kv-cache",
            "int2",
            "--fast",
            "true",
        ]))
        .unwrap();
        let e = cmd_generate(&f).expect_err("int2 is not a cache mode");
        assert!(e.to_string().contains("unknown --kv-cache mode"));
    }

    #[test]
    fn generate_reference_path_runs() {
        let f = parse_flags(&args(&[
            "--model",
            "OPT-6.7B",
            "--scheme",
            "reference",
            "--prompt",
            "5",
            "--generate",
            "3",
            "--fast",
            "true",
        ]))
        .unwrap();
        let out = cmd_generate(&f).expect("runs");
        assert!(out.contains("scheme reference"));
        assert!(out.contains("session 0:"));
    }

    #[test]
    fn generate_rejects_bad_flags() {
        assert!(cmd_generate(&Flags::new()).is_err());
        let zero_prompt = parse_flags(&args(&[
            "--model", "OPT-6.7B", "--prompt", "0", "--fast", "true",
        ]))
        .unwrap();
        assert!(cmd_generate(&zero_prompt).is_err());
        let too_long = parse_flags(&args(&[
            "--model",
            "OPT-6.7B",
            "--prompt",
            "250",
            "--generate",
            "100",
            "--fast",
            "true",
        ]))
        .unwrap();
        let e = cmd_generate(&too_long).unwrap_err();
        assert!(e.0.contains("context window"), "{e}");
        let bad_scheme = parse_flags(&args(&[
            "--model", "OPT-6.7B", "--scheme", "nope", "--fast", "true",
        ]))
        .unwrap();
        assert!(cmd_generate(&bad_scheme).is_err());
    }

    #[test]
    fn serve_transcript_is_deterministic() {
        let f = parse_flags(&args(&[
            "--model",
            "OPT-6.7B",
            "--fast",
            "true",
            "--requests",
            "6",
            "--arrival-seed",
            "9",
        ]))
        .unwrap();
        let a = cmd_serve(&f).expect("serves");
        let b = cmd_serve(&f).expect("serves again");
        assert_eq!(a, b, "same flags, same transcript bytes");
        assert!(a.contains("serve: 6 requests, arrival seed 9"), "{a}");
        assert!(
            a.contains("all admitted requests reached a terminal status"),
            "{a}"
        );
    }

    #[test]
    fn serve_admission_flags_reject_typed() {
        let f = parse_flags(&args(&[
            "--model",
            "OPT-6.7B",
            "--fast",
            "true",
            "--requests",
            "5",
            "--kv-budget-bytes",
            "1",
        ]))
        .unwrap();
        let out = cmd_serve(&f).expect("serves");
        assert!(out.contains("reject r0: kv budget"), "{out}");
        assert!(out.contains("rejected 5 (queue 0, kv 5)"), "{out}");
    }

    #[test]
    fn serve_rejects_bad_flags() {
        for (key, val) in [
            ("requests", "0"),
            ("queue-cap", "0"),
            ("batch", "0"),
            ("prefill-chunk", "0"),
            ("kv-cache", "int2"),
            ("scheme", "nope"),
        ] {
            let f = parse_flags(&args(&[
                "--model",
                "OPT-6.7B",
                "--fast",
                "true",
                &format!("--{key}"),
                val,
            ]))
            .unwrap();
            assert!(cmd_serve(&f).is_err(), "--{key} {val} must error");
        }
        assert!(cmd_serve(&Flags::new()).is_err(), "--model is required");
    }

    #[test]
    fn dispatch_and_usage() {
        assert!(run(&args(&["help"])).unwrap().contains("USAGE"));
        assert!(run(&args(&["bogus"])).is_err());
        assert!(run(&[]).is_err());
        assert!(run(&args(&["models"])).is_ok());
        assert!(usage().contains("serve"));
        assert!(usage().contains("sched"));
    }

    #[test]
    fn threads_flag_is_extracted_anywhere() {
        let (rest, n) = extract_threads(&args(&["--threads", "4", "models"])).unwrap();
        assert_eq!(rest, args(&["models"]));
        assert_eq!(n, Some(4));
        let (rest, n) =
            extract_threads(&args(&["simulate", "--threads", "2", "--seq", "512"])).unwrap();
        assert_eq!(rest, args(&["simulate", "--seq", "512"]));
        assert_eq!(n, Some(2));
        let (rest, n) = extract_threads(&args(&["models"])).unwrap();
        assert_eq!(rest, args(&["models"]));
        assert_eq!(n, None);
    }

    #[test]
    fn simulate_rejects_degenerate_hbm_config_gracefully() {
        // tRFC >= tREFI: the old code hit an assert! deep in the simulator;
        // now the typed error surfaces as a CliError.
        let f = parse_flags(&args(&[
            "--model",
            "OPT-6.7B",
            "--seq",
            "128",
            "--hbm-trfc",
            "4000",
        ]))
        .unwrap();
        let e = cmd_simulate(&f).unwrap_err();
        assert!(e.0.contains("invalid HBM configuration"), "{e}");
        assert!(e.0.contains("refresh"), "{e}");
    }

    #[test]
    fn simulate_accepts_hbm_overrides() {
        let f = parse_flags(&args(&[
            "--model",
            "OPT-6.7B",
            "--seq",
            "128",
            "--hbm-channels",
            "4",
        ]))
        .unwrap();
        assert!(cmd_simulate(&f).is_ok());
        assert_eq!(hbm_config_from_flags(&f).unwrap().channels, 4);
        let bad = parse_flags(&args(&["--hbm-channels", "many"])).unwrap();
        assert!(hbm_config_from_flags(&bad).is_err());
    }

    #[test]
    fn simulate_rejects_degenerate_hw_config_gracefully() {
        let f = parse_flags(&args(&[
            "--model", "OPT-6.7B", "--seq", "128", "--sa-dim", "0",
        ]))
        .unwrap();
        let e = cmd_simulate(&f).unwrap_err();
        assert!(e.0.contains("invalid hardware configuration"), "{e}");
    }

    #[test]
    fn simulate_accepts_hw_overrides() {
        let f = parse_flags(&args(&[
            "--model",
            "OPT-6.7B",
            "--seq",
            "128",
            "--sa-dim",
            "32",
            "--vpu-lanes",
            "32",
        ]))
        .unwrap();
        assert!(cmd_simulate(&f).is_ok());
        let hw = hw_config_from_flags(&f).unwrap();
        assert_eq!((hw.sa_dim, hw.vpu_lanes), (32, 32));
        let bad = parse_flags(&args(&["--sa-dim", "huge"])).unwrap();
        assert!(hw_config_from_flags(&bad).is_err());
    }

    #[test]
    fn fault_flags_are_extracted_and_validated() {
        let (rest, plan) = extract_fault_plan(&args(&["--fault-seed", "7", "models"])).unwrap();
        assert_eq!(rest, args(&["models"]));
        assert_eq!(plan.expect("default plan").seed(), 7);

        let (rest, plan) = extract_fault_plan(&args(&[
            "simulate",
            "--fault-plan",
            "blob=0.5,anan=0.1",
            "--seq",
            "128",
        ]))
        .unwrap();
        assert_eq!(rest, args(&["simulate", "--seq", "128"]));
        assert!(plan.is_some());

        let (_, plan) = extract_fault_plan(&args(&["models"])).unwrap();
        assert!(plan.is_none());
        assert!(extract_fault_plan(&args(&["--fault-seed"])).is_err());
        assert!(extract_fault_plan(&args(&["--fault-seed", "many"])).is_err());
        assert!(extract_fault_plan(&args(&["--fault-plan", "bogus=1"])).is_err());
    }

    #[test]
    fn fault_flags_dispatch_and_install_the_plan() {
        // A zero-rate plan: exercises the install path (and the lossless
        // encode/decode round trip it turns on) without perturbing any
        // concurrently running test.
        let out = run(&args(&[
            "--fault-plan",
            "blob=0.0",
            "ppl",
            "--model",
            "OPT-6.7B",
            "--scheme",
            "Tender@8",
            "--fast",
            "true",
        ]))
        .expect("faulted ppl runs");
        assert!(out.contains("Wiki"));
        assert!(tender::faults::active(), "plan must be installed");
        tender::faults::clear();
    }

    #[test]
    fn metrics_json_flag_is_extracted_anywhere() {
        let (rest, p) =
            extract_metrics_json(&args(&["--metrics-json", "/tmp/m.json", "models"])).unwrap();
        assert_eq!(rest, args(&["models"]));
        assert_eq!(p.as_deref(), Some("/tmp/m.json"));
        let (rest, p) = extract_metrics_json(&args(&["models"])).unwrap();
        assert_eq!(rest, args(&["models"]));
        assert_eq!(p, None);
        assert!(extract_metrics_json(&args(&["--metrics-json"])).is_err());
    }

    #[test]
    fn metrics_json_report_is_written() {
        let dir = std::env::temp_dir().join("tender-cli-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let path_s = path.to_str().unwrap().to_string();
        let out = run(&args(&[
            "--metrics-json",
            &path_s,
            "simulate",
            "--model",
            "OPT-6.7B",
            "--seq",
            "128",
        ]))
        .expect("simulate with metrics runs");
        assert!(out.contains("Tender"));
        let json = std::fs::read_to_string(&path).expect("report written");
        assert!(json.contains("\"sim\""), "sim section present");
        assert!(json.contains("\"accel_runs\""), "accel counters present");
        std::fs::remove_file(&path).ok();
        let e = run(&args(&[
            "--metrics-json",
            "/nonexistent-dir/deep/m.json",
            "models",
        ]))
        .unwrap_err();
        assert!(e.0.contains("cannot write metrics report"), "{e}");
    }

    #[test]
    fn threads_flag_rejects_bad_values() {
        assert!(extract_threads(&args(&["--threads"])).is_err());
        assert!(extract_threads(&args(&["--threads", "zero"])).is_err());
        assert!(extract_threads(&args(&["--threads", "0"])).is_err());
    }

    #[test]
    fn threads_flag_dispatches() {
        assert!(run(&args(&["--threads", "1", "models"])).is_ok());
        assert!(run(&args(&["--threads", "0", "models"])).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        // A typo must not silently run with the default cache mode.
        let generate = ["generate", "--model", "OPT-6.7B", "--fast", "true"];
        let typo = [&generate[..], &["--kv-cahce", "int8"]].concat();
        let e = run(&args(&typo)).unwrap_err();
        assert!(
            e.0.contains("unknown flag --kv-cahce for 'generate'"),
            "{e}"
        );
        assert!(
            e.0.contains("--kv-cache, "),
            "lists the accepted flags: {e}"
        );
        // Retired flags are not swallowed either.
        for retired in [["--backend", "blocked"], ["--kv-shared-arena", "true"]] {
            let e = run(&args(&[&generate[..], &retired].concat())).unwrap_err();
            assert!(e.0.contains(&format!("unknown flag {}", retired[0])), "{e}");
        }
        assert!(run(&args(&["--backend", "blocked", "models"])).is_err());
        let e = run(&args(&["models", "--backend", "blocked"])).unwrap_err();
        assert!(e.0.contains("'models' takes no flags"), "{e}");
    }

    #[test]
    fn usage_documents_exactly_the_flags_each_command_accepts() {
        let text = usage();
        let commands = text.split("COMMANDS:\n").nth(1).expect("COMMANDS section");
        let global = ["threads", "metrics-json", "fault-seed", "fault-plan"];
        let mut documented: HashMap<&str, Vec<&str>> = HashMap::new();
        let mut current = "";
        for line in commands.lines() {
            // A command's first line names it at two-space indent.
            if !line.starts_with("   ") {
                current = line.split_whitespace().next().expect("command name");
            }
            documented.entry(current).or_default().extend(
                line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .filter_map(|t| t.strip_prefix("--"))
                    .filter(|t| !global.contains(t)),
            );
        }
        for (name, known, _) in COMMANDS.iter().filter(|c| c.0 != "help") {
            let mut got = documented.remove(name).unwrap_or_default();
            got.sort_unstable();
            got.dedup();
            let mut want = known.to_vec();
            want.sort_unstable();
            assert_eq!(got, want, "usage() and COMMANDS disagree on '{name}'");
            let all = known.iter().map(|k| (k.to_string(), "x".to_string()));
            assert!(reject_unknown_flags(name, known, &all.collect()).is_ok());
        }
        assert!(
            documented.is_empty(),
            "undispatched commands: {documented:?}"
        );
    }
}
