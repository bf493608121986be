//! The repository benchmark: four generate/serve workloads driven through
//! the public API of `tender`, end-to-end metrics with regression bounds,
//! outside-in per-layer probes, and a noise-aware `compare`.
//!
//! ```text
//! benchmark/run.sh [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--threads N] [--smoke]
//!                  [--out RESULTS.json] [--trace-out SPANS.jsonl]
//! benchmark/run.sh compare OLD.json NEW.json
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both the
//! untraced pass (end-to-end numbers) and the traced pass (per-layer
//! numbers) run. After each workload × pass the program prints one JSON
//! object — `correct`, `attempted`, `failed`, `metrics` — so a run of one
//! workload and one pass ends with that object as its last line. See
//! README.md for the protocol and the glossary.

use std::process::ExitCode;
use std::time::Instant;

use tender::serve::ServeConfig;
use tender_benchmark::json::Json;
use tender_benchmark::metrics::{self, Better, END_TO_END, PER_LAYER};
use tender_benchmark::probes::{self, Calls, Values};
use tender_benchmark::stamp::{self, Stamp};
use tender_benchmark::stats::{interpolate, median, percentile, spread};
use tender_benchmark::trace::Tracer;
use tender_benchmark::workloads::{
    self, Env, Output, Rep, Sizes, Spec, Weights, TRAFFIC_SEED, WORKLOADS,
};
use tender_benchmark::{checks, compare};

/// Default measuring time per workload and pass; `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 22.0;
/// Default size of the pool. One thread: the machine this is measured on is
/// a two-vCPU slice of a shared host, and how fast a *second* busy thread
/// runs there depends on what else the host schedules — for minutes at a
/// time two threads get through no more than one does. `--threads N` is for
/// looking at the pool by hand.
const DEFAULT_THREADS: usize = 1;
/// Timed repetitions a full run never goes below.
const MIN_REPS: usize = 3;
/// Lone-request probes after every scheduler run of a serve workload:
/// interleaved, so both kinds of sample cover the whole measuring time.
const PROBES_PER_REP: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Passes {
    Untraced,
    Traced,
    Both,
}

struct Opts {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    passes: Passes,
    threads: usize,
    smoke: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

const USAGE: &str = "usage: run.sh [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--threads N] [--smoke] [--out PATH] [--trace-out PATH]\n       run.sh compare OLD.json NEW.json";

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut threads = None;
    let mut o = Opts {
        workloads: WORKLOADS.to_vec(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        passes: Passes::Both,
        threads: DEFAULT_THREADS,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |s: &String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {s}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = WORKLOADS
                    .iter()
                    .find(|w| *w == name)
                    .ok_or_else(|| format!("unknown workload {name}; one of {WORKLOADS:?}"))?;
                o.workloads = vec![w];
            }
            "--seed" => o.seed = num(value()?)?,
            "--seconds" => {
                let s = value()?;
                o.seconds = s
                    .parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x >= 0.0)
                    .ok_or_else(|| format!("--seconds: not a duration: {s}"))?;
            }
            "--trace" => {
                o.passes = match value()?.as_str() {
                    "0" => Passes::Untraced,
                    "1" => Passes::Traced,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--threads" => threads = Some((num(value()?)? as usize).clamp(1, 64)),
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(value()?.clone()),
            "--trace-out" => o.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // A smoke run gates no timing, so it may as well be quick.
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    o.threads = threads.unwrap_or(if o.smoke {
        nproc.min(4)
    } else {
        DEFAULT_THREADS
    });
    Ok(o)
}

fn main() -> ExitCode {
    // The protocol measures the process-default GEMM backend and sizes the
    // pool itself, whatever the caller's environment says.
    std::env::remove_var("TENDER_BACKEND");
    std::env::remove_var("TENDER_THREADS");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, old, new] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::run(old, new) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let rest = if args.first().map(String::as_str) == Some("run") {
        &args[1..]
    } else {
        &args[..]
    };
    match parse_opts(rest) {
        Ok(opts) => run(&opts),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// A measured end-to-end metric: the reported value, the number of samples
/// behind it, and one value per repetition (for spread and `compare`).
struct Measured {
    value: f64,
    n: usize,
    reps: Vec<f64>,
}

#[derive(Default)]
struct WorkloadResult {
    name: &'static str,
    checks: Vec<(&'static str, Result<(), String>)>,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<(&'static str, Measured)>,
    per_layer: Vec<(&'static str, f64)>,
}

impl WorkloadResult {
    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, r)| r.is_ok())
    }

    fn check(&mut self, name: &'static str, result: Result<(), String>) {
        if let Err(e) = &result {
            println!("  CHECK FAILED {e}");
        }
        self.checks.push((name, result));
    }
}

/// The inputs of one workload, generated from the seeds before timing.
enum Inputs {
    Prompts(Vec<Vec<usize>>),
    Serve(ServeConfig),
}

struct Ctx<'a> {
    env: &'a Env,
    opts: &'a Opts,
    sizes: Sizes,
    calls: Calls,
}

impl Ctx<'_> {
    fn inputs(&self, spec: &Spec) -> Inputs {
        if spec.serve {
            Inputs::Serve(workloads::serve_config(
                spec,
                &self.sizes,
                &self.env.shape,
                TRAFFIC_SEED,
            ))
        } else {
            Inputs::Prompts(workloads::generate_prompts(
                spec,
                &self.sizes,
                self.env.shape.vocab,
                self.opts.seed,
            ))
        }
    }

    /// One repetition from a clean metrics bank.
    fn rep(&self, spec: &Spec, inputs: &Inputs, tr: &mut Tracer) -> Rep {
        tender::metrics::reset_all();
        match inputs {
            Inputs::Prompts(p) if spec.name == "prefill_heavy" => {
                workloads::prefill_heavy_rep(self.env, spec, &self.sizes, p, tr)
            }
            Inputs::Prompts(p) => workloads::decode_ctx_rep(self.env, spec, &self.sizes, p, tr),
            Inputs::Serve(cfg) => workloads::serve_rep(self.env, spec, cfg, tr),
        }
    }

    /// One lone-request probe of a serve workload (prompt tokens drawn
    /// from `--seed`, the same on every call, so every probe of a run does
    /// the same work), from a clean metrics bank.
    fn probe(&self, spec: &Spec, inputs: &Inputs, tr: &mut Tracer) -> Option<(f64, f64)> {
        let Inputs::Serve(cfg) = inputs else {
            return None;
        };
        tender::metrics::reset_all();
        workloads::serve_probe(self.env, spec, cfg, self.opts.seed, tr)
    }

    /// Whether `share` of the measuring time has passed. A smoke run is
    /// not time-boxed: it does the minimum everywhere.
    fn time_up(&self, since: Instant, share: f64) -> bool {
        self.opts.smoke || since.elapsed().as_secs_f64() >= self.opts.seconds * share
    }

    /// Whether one more repetition like the `done` so far would end further
    /// from the measuring time than stopping now does.
    fn nearest_to_time(&self, since: Instant, done: usize) -> bool {
        let elapsed = since.elapsed().as_secs_f64();
        self.opts.smoke || elapsed + 0.5 * elapsed / done.max(1) as f64 >= self.opts.seconds
    }
}

fn run(opts: &Opts) -> ExitCode {
    let (sizes, calls) = if opts.smoke {
        (Sizes::smoke(), Calls::smoke())
    } else {
        (Sizes::full(), Calls::full())
    };
    tender::pool::set_threads(opts.threads);
    let stamp = Stamp::capture(opts.threads, opts.seed, opts.seconds, opts.smoke, sizes);
    println!(
        "tender benchmark: rev {}{} | nproc {} threads {} | gemm backend {} | {} | seed {} traffic seed {} | {} s/pass{}",
        stamp.git_rev,
        if stamp.git_dirty { "+dirty" } else { "" },
        stamp.nproc,
        stamp.threads,
        stamp.gemm_backend,
        stamp.rustc,
        stamp.seed,
        TRAFFIC_SEED,
        stamp.seconds,
        if opts.smoke { " | SMOKE" } else { "" },
    );
    if let Some(w) = stamp.noise_warning(None) {
        println!("{w}");
    }

    let traced = opts.passes != Passes::Untraced;
    let untraced = opts.passes != Passes::Traced;
    let mut tracer = if traced {
        Tracer::on(1 << 17)
    } else {
        Tracer::off()
    };
    let mut needs: Vec<Weights> = opts
        .workloads
        .iter()
        .filter_map(|w| workloads::spec(w))
        .map(|s| s.weights)
        .collect();
    if traced {
        // The probes time both Tender models whatever the workload.
        needs.extend([Weights::Tender4, Weights::Tender8]);
    }
    let builds = if untraced && !opts.smoke { 3 } else { 1 };
    let env = Env::build(&needs, builds, &mut tracer);
    let ctx = Ctx {
        env: &env,
        opts,
        sizes,
        calls,
    };

    let mut probe_values: Option<Values> = None;
    let mut results = Vec::new();
    for name in &opts.workloads {
        let spec = workloads::spec(name).expect("validated workload name");
        let mut res = WorkloadResult {
            name: spec.name,
            ..WorkloadResult::default()
        };
        println!(
            "\n== {} ({} weights, {} KV cache) ==",
            spec.name,
            spec.weights.label(),
            spec.kv.label()
        );
        if untraced {
            untraced_pass(&ctx, &spec, &mut res);
            print_end_to_end(&res);
            println!("{}", contract_line(&res, false));
        }
        if traced {
            traced_pass(&ctx, &spec, &mut tracer, &mut probe_values, &mut res);
            print_per_layer(&res);
            // The run's last line of standard output is a result object,
            // so the span table goes before the last one.
            if Some(name) == opts.workloads.last() {
                print_span_totals(&tracer);
            }
            println!("{}", contract_line(&res, true));
        }
        results.push(res);
    }

    let load_end = stamp::load_average();
    if let Some(w) = stamp.noise_warning(load_end) {
        eprintln!("{w}");
    }
    let mut ok = results.iter().all(WorkloadResult::correct);
    if let Some(path) = &opts.trace_out {
        ok &= write_file(path, &tracer.to_jsonl());
    }
    if let Some(path) = &opts.out {
        ok &= write_file(path, &results_json(&stamp, load_end, &results).to_pretty());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn write_file(path: &str, text: &str) -> bool {
    match std::fs::write(path, text) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            false
        }
    }
}

/// K2 for one repetition against the reference repetition.
fn same_output(what: &str, got: &Output, want: &Output) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "K2: {what} produced outputs that differ from the first repetition's"
        ))
    }
}

/// K3 on a serve repetition (a no-op on generate workloads).
fn accounting(ctx: &Ctx<'_>, spec: &Spec, inputs: &Inputs, rep: &Rep) -> Result<(), String> {
    let (Output::Serve(report), Inputs::Serve(cfg)) = (&rep.output, inputs) else {
        return Ok(());
    };
    // The ÷10 smoke traffic is too short to build KV pressure; the
    // accounting identities hold at any size.
    let demotion = match spec.name {
        "serve_pressure" if ctx.opts.smoke => None,
        "serve_pressure" => Some(true),
        _ => Some(false),
    };
    checks::serve_accounting(report, cfg.requests as u64, demotion)
}

/// The untraced pass: repetitions on identical inputs (with lone-request
/// probes on serve workloads) for the measuring time, then the untimed
/// checks. There is no separate warm-up: every timing is the fastest seen
/// of an operation, and the first, cold repetition never holds that.
fn untraced_pass(ctx: &Ctx<'_>, spec: &Spec, res: &mut WorkloadResult) {
    let off = &mut Tracer::off();
    let inputs = ctx.inputs(spec);
    let (min_reps, probes_per_rep) = match (ctx.opts.smoke, spec.serve) {
        (true, serve) => (2, usize::from(serve)),
        (false, true) => (MIN_REPS, PROBES_PER_REP),
        (false, false) => (MIN_REPS, 0),
    };

    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut probes: Vec<(f64, f64)> = Vec::new();
    let mut probes_tried = 0;
    while reps.len() < min_reps || !ctx.nearest_to_time(start, reps.len()) {
        reps.push(ctx.rep(spec, &inputs, off));
        for _ in 0..probes_per_rep {
            probes_tried += 1;
            probes.extend(ctx.probe(spec, &inputs, off));
        }
    }

    let k2 = reps
        .iter()
        .try_for_each(|r| same_output("a repetition", &r.output, &reps[0].output));
    res.check(
        "K1",
        checks::k1_decode_equals_forward(ctx.env, ctx.opts.seed),
    );
    res.check("K2", k2);
    res.check("K3", accounting(ctx, spec, &inputs, &reps[0]));
    let agree = checks::argmax_agreement(ctx.env, spec, &ctx.sizes);
    res.check("K4", agree.k4.clone());

    // Two scheduler runs per probe; a probe whose request did not complete
    // is a failed operation.
    res.attempted = reps.iter().map(|r| r.attempted).sum::<u64>() + 2 * probes_tried as u64;
    res.failed = reps.iter().map(|r| r.errored).sum::<u64>() + (probes_tried - probes.len()) as u64;
    let extra_tokens = match &inputs {
        Inputs::Serve(cfg) => workloads::probe_extra_tokens(cfg),
        Inputs::Prompts(_) => 0,
    };
    res.end_to_end = end_to_end(ctx.env, spec, &reps, &probes, extra_tokens, &agree);
    let missing = res
        .end_to_end
        .iter()
        .find(|(_, m)| !(m.value.is_finite() && m.value > 0.0))
        .map(|(name, _)| format!("{name} was not measured"));
    res.check("measured", missing.map_or(Ok(()), Err));
}

/// The fastest of `xs` (infinite for none). Every repetition of a run does
/// the same work on the same inputs, so what separates two timings of one
/// operation is interference from the rest of the machine, and that only
/// ever adds time: the fastest timing is the nearest to the program's own.
fn fastest(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

/// `samples(rep)[k]` times the k-th operation of a repetition — the same
/// operation in every repetition (K2 checks that they produce the same
/// tokens): its fastest timing across repetitions.
fn floors(reps: &[Rep], samples: impl Fn(&Rep) -> Vec<f64>) -> Vec<f64> {
    let per_rep: Vec<Vec<f64>> = reps.iter().map(samples).collect();
    let ops = per_rep.iter().map(Vec::len).min().unwrap_or(0);
    (0..ops)
        .map(|k| fastest(per_rep.iter().map(|r| r[k])))
        .collect()
}

/// What a session's wall holds beyond its first token and its gaps (its
/// teardown), per session of a generate repetition.
fn session_rest_ms(rep: &Rep) -> Vec<f64> {
    let gaps = rep.itl_ms.len() / rep.ttft_ms.len().max(1);
    (rep.req_ms.iter().zip(&rep.ttft_ms).enumerate())
        .map(|(j, (req, first))| {
            let decode: f64 = rep.itl_ms.iter().skip(j * gaps).take(gaps).sum();
            (req - first - decode).max(0.0)
        })
        .collect()
}

/// `tokens_per_s`, `ttft_ms_p50`, `itl_ms_p50` and `req_latency_ms_p50` of
/// a generate workload, all built from the fastest timing of each
/// operation (first token, gap, teardown): a latency p50 is the median over
/// operations, a session's latency the sum of its operations, and the
/// throughput the repetition's tokens over the sum of its sessions — the
/// one client issues them back to back. Whole repetitions (half a second
/// to a second and a half) are too long to find the machine quiet for; an
/// operation of a few milliseconds finds it so in some repetition. The
/// per-repetition values are kept for the printed spread and for `compare`.
fn generate_timings(reps: &[Rep]) -> [Measured; 4] {
    let first = floors(reps, |r| r.ttft_ms.clone());
    let gaps = floors(reps, |r| r.itl_ms.clone());
    let rest = floors(reps, session_rest_ms);
    let per_session = gaps.len() / first.len().max(1);
    let sessions: Vec<f64> = (first.iter().zip(&rest).enumerate())
        .map(|(j, (first, rest))| {
            let decode: f64 = gaps.iter().skip(j * per_session).take(per_session).sum();
            first + decode + rest
        })
        .collect();
    let wall_s = sessions.iter().sum::<f64>() / 1e3;
    let tokens = reps.first().map_or(0, |r| r.tokens) as f64;
    let p50 = |floors: &[f64], samples: fn(&Rep) -> &[f64]| Measured {
        value: median(floors),
        n: reps.iter().map(|r| samples(r).len()).sum(),
        reps: reps.iter().map(|r| median(samples(r))).collect(),
    };
    [
        Measured {
            value: tokens / wall_s,
            n: reps.len(),
            reps: reps.iter().map(|r| r.tokens as f64 / r.wall_s).collect(),
        },
        p50(&first, |r| &r.ttft_ms),
        p50(&gaps, |r| &r.itl_ms),
        p50(&sessions, |r| &r.req_ms),
    ]
}

/// `tokens_per_s` and `req_latency_ms_p50` of a serve workload, built from
/// the fastest wall of each block of scheduler iterations (the set-up, then
/// every `ITER_BLOCK` iterations; `workloads::serve_rep` times them from
/// outside). The run is deterministic in iterations, so a block does the
/// same work in every repetition. Their sum is the wall of an undisturbed
/// run; summed up to iteration `t` they are its clock, linear inside a
/// block. A request's latency is read off that clock, from the start of the
/// iteration that admitted it to the end of the one that finished it, and
/// the p50 over requests follows the scheduler's own nearest-rank rule. The
/// measured values of each repetition (its throughput, the p50 the
/// scheduler published) are kept for the printed spread and for `compare`.
fn serve_timings(reps: &[Rep]) -> [Measured; 2] {
    let blocks = floors(reps, |r| r.blocks_ms.clone());
    let wall_ms: f64 = blocks.iter().sum();
    let report = reps.first().and_then(|r| match &r.output {
        Output::Serve(report) => Some(report.as_ref()),
        Output::Tokens(_) => None,
    });
    // (iteration, ms since the run began) where the clock is known: the
    // start of iteration 0, ITER_BLOCK, 2 × ITER_BLOCK, … and the end.
    let mut knots: Vec<(f64, f64)> = Vec::with_capacity(blocks.len());
    let mut elapsed = 0.0;
    for (k, block) in blocks.iter().enumerate() {
        elapsed += block;
        knots.push(((k as u64 * workloads::ITER_BLOCK) as f64, elapsed));
    }
    if let (Some(end), Some(report)) = (knots.last_mut(), report) {
        end.0 = report.iterations as f64;
    }
    let clock = |iteration: u64| interpolate(&knots, iteration as f64);
    let latencies: Vec<f64> = report.map_or(Vec::new(), |report| {
        (report.outcomes.iter())
            .filter_map(|o| Some(clock(o.finished_at + 1) - clock(o.admitted_at?)))
            .collect()
    });
    let tokens = reps.first().map_or(0, |r| r.tokens) as f64;
    [
        Measured {
            value: tokens / (wall_ms / 1e3),
            n: reps.len(),
            reps: reps.iter().map(|r| r.tokens as f64 / r.wall_s).collect(),
        },
        Measured {
            value: percentile(&latencies, 50),
            n: latencies.len() * reps.len(),
            reps: reps.iter().map(|r| r.req_ms[0]).collect(),
        },
    ]
}

fn of_reps(reps: Vec<f64>) -> Measured {
    Measured {
        value: median(&reps),
        n: reps.len(),
        reps,
    }
}

fn end_to_end(
    env: &Env,
    spec: &Spec,
    reps: &[Rep],
    probes: &[(f64, f64)],
    extra_tokens: usize,
    agree: &checks::Agreement,
) -> Vec<(&'static str, Measured)> {
    let quantize = env.quantize_times(spec.weights);
    let setup: Vec<f64> = env
        .new_s
        .iter()
        .enumerate()
        .map(|(i, new)| new + quantize.get(i).copied().unwrap_or(0.0))
        .collect();
    let [tokens_per_s, ttft_p50, itl_p50, req] = if spec.serve {
        // Lone requests: the first token is the short one's wall, a gap the
        // extra wall of the long one per extra token.
        let short = fastest(probes.iter().map(|p| p.0));
        let long = fastest(probes.iter().map(|p| p.1));
        let per_token = extra_tokens.max(1) as f64;
        let first = Measured {
            value: short,
            n: probes.len(),
            reps: probes.iter().map(|p| p.0).collect(),
        };
        let gap = Measured {
            value: (long - short) / per_token,
            n: probes.len(),
            reps: probes.iter().map(|p| (p.1 - p.0) / per_token).collect(),
        };
        let [rate, req] = serve_timings(reps);
        [rate, first, gap, req]
    } else {
        generate_timings(reps)
    };
    let ok_share = |attempted: u64, bad: u64| 1.0 - bad as f64 / attempted.max(1) as f64;
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let bad: u64 = reps.iter().map(|r| r.errored + r.refused).sum();
    let agree_share = agree.matched as f64 / agree.compared.max(1) as f64;
    vec![
        ("setup_s", of_reps(setup)),
        ("tokens_per_s", tokens_per_s),
        ("ttft_ms_p50", ttft_p50),
        ("itl_ms_p50", itl_p50),
        ("req_latency_ms_p50", req),
        (
            "peak_kv_bytes",
            of_reps(reps.iter().map(|r| r.peak_kv_bytes as f64).collect()),
        ),
        (
            "ok_share",
            Measured {
                value: ok_share(attempted, bad),
                n: attempted as usize,
                reps: reps
                    .iter()
                    .map(|r| ok_share(r.attempted, r.errored + r.refused))
                    .collect(),
            },
        ),
        (
            "argmax_agree_share",
            Measured {
                value: agree_share,
                n: agree.compared as usize,
                reps: vec![agree_share],
            },
        ),
    ]
}

/// The traced pass: pairs of one untraced and one traced repetition (their
/// throughput ratio is the tracing overhead), the bank counters of the last
/// traced repetition, and the probes (run once per process).
fn traced_pass(
    ctx: &Ctx<'_>,
    spec: &Spec,
    tracer: &mut Tracer,
    probe_values: &mut Option<Values>,
    res: &mut WorkloadResult,
) {
    let off = &mut Tracer::off();
    let inputs = ctx.inputs(spec);
    let warm = ctx.rep(spec, &inputs, off);
    let start = Instant::now();
    let (mut plain, mut spanned, mut ttft, mut itl) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut values = Values::new();
    let mut k2 = Ok(());
    let mut last_fail_share;
    loop {
        let u = ctx.rep(spec, &inputs, off);
        let t = tracer.scope("repetition", 0, |tr| ctx.rep(spec, &inputs, tr));
        metrics::bank_values(&t, ctx.opts.threads, &mut values);
        for r in [&u, &t] {
            k2 = k2.and(same_output("the traced pass", &r.output, &warm.output));
            ttft.extend_from_slice(&r.ttft_ms);
            itl.extend_from_slice(&r.itl_ms);
        }
        last_fail_share = (t.errored + t.refused) as f64 / t.attempted.max(1) as f64;
        plain.push(u.tokens as f64 / u.wall_s);
        spanned.push(t.tokens as f64 / t.wall_s);
        res.attempted += u.attempted + t.attempted;
        res.failed += u.errored + t.errored;
        if ctx.time_up(start, 0.5) {
            break;
        }
    }
    let lone = if ctx.opts.smoke { 1 } else { PROBES_PER_REP };
    for _ in 0..if spec.serve { lone } else { 0 } {
        res.attempted += 2;
        match ctx.probe(spec, &inputs, tracer) {
            Some((first_token, _)) => ttft.push(first_token),
            None => res.failed += 1,
        }
    }
    res.check("K2.traced", k2);
    res.check("K3.traced", accounting(ctx, spec, &inputs, &warm));

    values.insert(
        "trace.overhead_share",
        1.0 - median(&spanned) / median(&plain),
    );
    values.insert("ttft_ms_p90", percentile(&ttft, 90));
    // Zero on a serve workload: `Scheduler::run` shows no single gap.
    values.insert("itl_ms_p95", percentile(&itl, 95));
    values.insert("fail_share", last_fail_share);
    let probed = probe_values.get_or_insert_with(|| {
        probes::run(ctx.env, &ctx.sizes, ctx.calls, ctx.opts.threads, tracer)
    });
    values.extend(probed.iter().map(|(k, v)| (*k, *v)));
    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|(name, _, _)| *name)
        .filter(|name| !values.contains_key(name))
        .collect();
    res.check(
        "measured.traced",
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!("per-layer metrics not measured: {missing:?}"))
        },
    );
    res.per_layer = PER_LAYER
        .iter()
        .map(|(name, _, _)| (*name, values.get(name).copied().unwrap_or(0.0)))
        .collect();
}

fn print_end_to_end(res: &WorkloadResult) {
    println!(
        "  {:<20} {:>14} {:<6} {:>6}  {:>12} {:>12} {:>7} {:>6}",
        "end-to-end metric", "value", "unit", "n", "q1(reps)", "q3(reps)", "spread", "bound"
    );
    for def in END_TO_END {
        let Some((_, m)) = res.end_to_end.iter().find(|(n, _)| *n == def.name) else {
            continue;
        };
        let (q1, q3, spread) = spread(&m.reps);
        let arrow = if def.better == Better::Higher {
            "-"
        } else {
            "+"
        };
        println!(
            "  {:<20} {:>14.5} {:<6} {:>6}  {:>12.5} {:>12.5} {:>6.1}% {:>5}%",
            def.name,
            m.value,
            def.unit,
            m.n,
            q1,
            q3,
            spread * 100.0,
            format!("{arrow}{}", def.bound * 100.0),
        );
    }
    if let Some((_, ok)) = res.end_to_end.iter().find(|(n, _)| *n == "ok_share") {
        println!(
            "  fail_share = 1 - ok_share = {:.5} (n={})",
            1.0 - ok.value,
            ok.n
        );
    }
    print_checks(res);
}

fn print_per_layer(res: &WorkloadResult) {
    println!("  per-layer metric (traced pass; informational)");
    for ((name, unit, _), (_, value)) in PER_LAYER.iter().zip(&res.per_layer) {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    print_checks(res);
}

fn print_checks(res: &WorkloadResult) {
    let line: Vec<String> = res
        .checks
        .iter()
        .map(|(name, r)| format!("{name} {}", if r.is_ok() { "ok" } else { "FAILED" }))
        .collect();
    println!(
        "  checks: {} | attempted {} failed {}",
        line.join(", "),
        res.attempted,
        res.failed
    );
}

fn print_span_totals(tracer: &Tracer) {
    println!(
        "\n== spans (traced pass; self = span minus its children) ==\n  {:<28} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, t) in tracer.totals() {
        println!(
            "  {:<28} {:>8} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The one-line result object of a workload × pass: every end-to-end
/// metric of the untraced pass, or every per-layer metric of the traced one.
fn contract_line(res: &WorkloadResult, traced: bool) -> String {
    let metrics: Vec<(&str, Json)> = if traced {
        PER_LAYER
            .iter()
            .zip(&res.per_layer)
            .map(|((name, unit, _), (_, v))| (*name, metric_json(*v, unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter_map(|def| {
                let (_, m) = res.end_to_end.iter().find(|(n, _)| *n == def.name)?;
                Some((def.name, metric_json(m.value, def.unit)))
            })
            .collect()
    };
    Json::obj([
        ("correct", Json::Bool(res.correct())),
        ("attempted", Json::Num(res.attempted.max(1) as f64)),
        ("failed", Json::Num(res.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_line()
}

fn results_json(stamp: &Stamp, load_end: Option<f64>, results: &[WorkloadResult]) -> Json {
    let workloads = results.iter().map(|res| {
        let e2e = END_TO_END.iter().filter_map(|def| {
            let (_, m) = res.end_to_end.iter().find(|(n, _)| *n == def.name)?;
            let (q1, q3, _) = spread(&m.reps);
            Some((
                def.name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(def.unit)),
                    ("n", Json::Num(m.n as f64)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    (
                        "reps",
                        Json::Arr(m.reps.iter().map(|x| Json::Num(*x)).collect()),
                    ),
                ]),
            ))
        });
        let layers = PER_LAYER
            .iter()
            .zip(&res.per_layer)
            .map(|((name, unit, _), (_, v))| (*name, metric_json(*v, unit)));
        let checks = res.checks.iter().map(|(name, r)| {
            (
                *name,
                match r {
                    Ok(()) => Json::Bool(true),
                    Err(e) => Json::str(e),
                },
            )
        });
        (
            res.name,
            Json::obj([
                ("correct", Json::Bool(res.correct())),
                ("attempted", Json::Num(res.attempted as f64)),
                ("failed", Json::Num(res.failed as f64)),
                (
                    "checks",
                    Json::Obj(checks.map(|(k, v)| (k.to_string(), v)).collect()),
                ),
                ("end_to_end", Json::obj(e2e)),
                ("per_layer", Json::obj(layers)),
            ]),
        )
    });
    Json::obj([
        ("stamp", stamp.to_json(load_end)),
        ("workloads", Json::obj(workloads)),
    ])
}
