//! Runs every experiment in paper order (tables I–VII, figures 2–13)
//! through the resilient runner: panic isolation, bounded retry, watchdog
//! timeouts, and a resumable journal.
//!
//! Flags:
//!
//! * `--metrics-json <path>` — write the full metrics report (counters +
//!   timings) to `path` after the suite completes.
//! * `--journal <path>` — append each completed experiment (name + rendered
//!   output) to a JSONL journal as it finishes.
//! * `--resume` — replay journaled experiments instead of re-running them;
//!   table stdout is byte-identical to an uninterrupted run.
//! * `--fault-seed <u64>` — install the default deterministic fault plan
//!   with this seed (same seed ⇒ same faults ⇒ same stdout at any thread
//!   count).
//! * `--fault-plan <spec>` — override per-site fault rates, e.g.
//!   `blob=0.25,anan=0.05,exp=0.3` (sites: blob wnan anan dram pool exp
//!   sched);
//!   seeded by `--fault-seed` (default 0).
//! * `--halt-after <n>` — stop after executing `n` new experiments (exit
//!   code 3): a deterministic stand-in for an interrupt, for testing
//!   `--resume`.
//! * `--only <name>` — run a single catalog entry (e.g. `generate`,
//!   `table2`): the smoke-job workhorse.
//! * `--retries <n>` / `--timeout-secs <n>` — retry policy per experiment.
//!
//! Exit codes: 0 success, 1 experiment failure (or I/O error), 2 usage,
//! 3 halted early via `--halt-after`.
//!
//! The trailing `kernel overflow events` line is part of stdout on purpose:
//! overflow counts are exact integer sums, so the line is byte-identical at
//! any pool size (pinned by `tests/determinism.rs`), and the metrics smoke
//! test cross-checks it against the JSON report. Resume comparisons should
//! ignore it — replayed experiments do not re-execute kernels, so the
//! counter is scoped to work done in *this* process.

#![forbid(unsafe_code)]

use std::time::Duration;

use tender_bench::runner::{run_suite, RunnerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: all_experiments [--metrics-json <path>] [--journal <path>] [--resume]\n\
         \x20                      [--fault-seed <u64>] [--fault-plan <spec>]\n\
         \x20                      [--halt-after <n>] [--only <name>]\n\
         \x20                      [--retries <n>] [--timeout-secs <n>]"
    );
    std::process::exit(2);
}

fn parse_or_usage<T: std::str::FromStr>(flag: &str, v: &str) -> T
where
    T::Err: std::fmt::Display,
{
    v.parse().unwrap_or_else(|e| {
        eprintln!("error: bad {flag}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut metrics_path: Option<String> = None;
    let mut cfg = RunnerConfig::default();
    let mut fault_seed: Option<u64> = None;
    let mut fault_spec: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--metrics-json" => metrics_path = Some(value("--metrics-json")),
            "--journal" => cfg.journal = Some(value("--journal").into()),
            "--resume" => cfg.resume = true,
            "--fault-seed" => fault_seed = Some(parse_or_usage(a, &value("--fault-seed"))),
            "--fault-plan" => fault_spec = Some(value("--fault-plan")),
            "--halt-after" => cfg.halt_after = Some(parse_or_usage(a, &value("--halt-after"))),
            "--only" => cfg.only = Some(value("--only")),
            "--retries" => cfg.retries = parse_or_usage(a, &value("--retries")),
            "--timeout-secs" => {
                let secs: u64 = parse_or_usage(a, &value("--timeout-secs"));
                cfg.timeout = Duration::from_secs(secs.max(1));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag '{other}'");
                usage();
            }
        }
    }

    // Install the fault plan before any experiment runs so every injection
    // site sees the same plan for the whole process lifetime.
    match (fault_seed, fault_spec) {
        (seed, Some(spec)) => {
            let plan =
                tender_faults::FaultPlan::parse(seed.unwrap_or(0), &spec).unwrap_or_else(|e| {
                    eprintln!("error: bad --fault-plan: {e}");
                    std::process::exit(2);
                });
            tender_faults::install(plan);
        }
        (Some(seed), None) => tender_faults::install(tender_faults::FaultPlan::default_plan(seed)),
        (None, None) => {}
    }

    let start = std::time::Instant::now();
    let result = run_suite(&cfg).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    for outcome in &result.outcomes {
        print!("{}", outcome.output);
    }
    println!(
        "kernel overflow events: {}",
        tender_metrics::kernel::OVERFLOW_EVENTS.get()
    );
    eprintln!("total: {:.1}s", start.elapsed().as_secs_f64());
    if let Some(path) = metrics_path {
        if let Err(e) = std::fs::write(&path, tender_metrics::report().to_json()) {
            eprintln!("error: cannot write metrics report to '{path}': {e}");
            std::process::exit(1);
        }
    }
    if result.halted {
        let fresh = result.outcomes.iter().filter(|o| !o.replayed).count();
        eprintln!("halted after {fresh} experiment(s); resume with --resume");
        std::process::exit(3);
    }
    if result.any_failed() {
        std::process::exit(1);
    }
}
