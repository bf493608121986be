//! Resilient experiment runner: panic isolation, bounded retry, watchdog
//! timeouts, and a resumable journal.
//!
//! The runner executes the paper suite one experiment at a time (inner
//! kernels still fan out across the worker pool), with each attempt running
//! on a dedicated watchdog thread:
//!
//! * **Panic isolation** — a panicking experiment is caught with
//!   `catch_unwind`; the suite keeps going and the failure is rendered as
//!   an error table instead of aborting the process.
//! * **Bounded retry with deterministic backoff** — transient faults (the
//!   fault plan's `exp` site keys decisions by `(name, attempt)`, so a
//!   retry can succeed where the first attempt failed) get a fixed number
//!   of re-runs with a fixed, seed-independent backoff schedule.
//! * **Watchdog** — each attempt must finish within a wall-clock budget;
//!   a hung experiment is abandoned (its thread is detached) and treated
//!   as a failed attempt.
//! * **Journal / resume** — with a journal path, each completed
//!   experiment's rendered output is appended as one JSON line; a resumed
//!   run replays journaled outputs byte-for-byte (stdout equals an
//!   uninterrupted run, modulo process-scoped counter lines) and only
//!   executes what is missing.
//!
//! Every attempt of an experiment is a pure function of the experiment
//! name and the installed fault plan, so suite stdout is byte-identical
//! across runs and thread counts.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use tender_metrics::runner as metrics;

use crate::fmt::Table;

/// One experiment of the paper suite: a stable name (the journal key) and
/// the function regenerating its tables.
#[derive(Clone, Copy)]
pub struct ExperimentSpec {
    /// Stable identifier used for journaling, fault keying, and logs.
    pub name: &'static str,
    /// Regenerates the experiment's tables. Deterministic.
    pub run: fn() -> Vec<Table>,
}

/// The full suite in paper order.
pub fn catalog() -> Vec<ExperimentSpec> {
    use crate::experiments as e;
    vec![
        ExperimentSpec {
            name: "fig2_3",
            run: e::fig2_3,
        },
        ExperimentSpec {
            name: "table1",
            run: e::table1,
        },
        ExperimentSpec {
            name: "table2",
            run: e::table2,
        },
        ExperimentSpec {
            name: "table3",
            run: e::table3,
        },
        ExperimentSpec {
            name: "table4",
            run: e::table4,
        },
        ExperimentSpec {
            name: "fig9",
            run: e::fig9,
        },
        ExperimentSpec {
            name: "table5",
            run: e::table5,
        },
        ExperimentSpec {
            name: "fig10",
            run: e::fig10,
        },
        ExperimentSpec {
            name: "fig11",
            run: e::fig11,
        },
        ExperimentSpec {
            name: "fig12",
            run: e::fig12,
        },
        ExperimentSpec {
            name: "fig13",
            run: e::fig13,
        },
        ExperimentSpec {
            name: "table6",
            run: e::table6,
        },
        ExperimentSpec {
            name: "table7",
            run: e::table7,
        },
        ExperimentSpec {
            name: "generate",
            run: e::generate,
        },
        ExperimentSpec {
            name: "kv_cache",
            run: e::kv_cache,
        },
        ExperimentSpec {
            name: "kv_page",
            run: e::kv_page,
        },
        ExperimentSpec {
            name: "serve",
            run: e::serve,
        },
    ]
}

/// Runner policy knobs (all deterministic).
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Extra attempts after the first failure.
    pub retries: u32,
    /// Wall-clock budget per attempt.
    pub timeout: Duration,
    /// Base backoff between attempts; attempt `k` (1-based retry index)
    /// sleeps `k × backoff`. Affects wall-clock only, never output.
    pub backoff: Duration,
    /// Journal path: completed experiments are appended as JSON lines.
    pub journal: Option<PathBuf>,
    /// Replay journaled experiments instead of re-running them.
    pub resume: bool,
    /// Stop (exit status [`SuiteResult::halted`]) after executing this many
    /// *new* experiments — a deterministic stand-in for an interrupt.
    pub halt_after: Option<usize>,
    /// Run only the catalog entry with this name (smoke jobs isolate one
    /// experiment). `None` runs the whole catalog.
    pub only: Option<String>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            retries: 2,
            timeout: Duration::from_secs(900),
            backoff: Duration::from_millis(50),
            journal: None,
            resume: false,
            halt_after: None,
            only: None,
        }
    }
}

/// The terminal state of one experiment in a suite run.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// The experiment's stable name.
    pub name: &'static str,
    /// Rendered table output (or a rendered error table on failure).
    pub output: String,
    /// Attempts actually executed (0 when replayed from the journal).
    pub attempts: u32,
    /// Replayed from the journal instead of executed.
    pub replayed: bool,
    /// All attempts failed; `output` is an error table.
    pub failed: bool,
}

/// Result of a whole suite run.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// One outcome per catalog entry processed, in catalog order. When the
    /// run halts early, unprocessed experiments are absent.
    pub outcomes: Vec<ExperimentOutcome>,
    /// The run stopped at the `halt_after` budget with work remaining.
    pub halted: bool,
}

impl SuiteResult {
    /// Whether any executed experiment failed permanently.
    pub fn any_failed(&self) -> bool {
        self.outcomes.iter().any(|o| o.failed)
    }
}

/// Renders the suite's standard failure table.
pub fn failure_table(name: &str, attempts: u32, reason: &str) -> Table {
    let mut t = Table::new(
        format!("{name}: FAILED after {attempts} attempt(s)"),
        &["Error"],
    );
    t.row(vec![reason.to_string()]);
    t.note("experiment isolated by the resilient runner; rest of the suite unaffected");
    t
}

/// Best-effort human rendering of a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

enum Attempt {
    Ok(Vec<Table>),
    Panicked(String),
    TimedOut,
}

/// Runs one attempt on a watchdog thread. The fault plan's `exp` site is
/// consulted *inside* the isolated closure so an injected failure behaves
/// exactly like an organic panic.
fn run_attempt(spec: ExperimentSpec, attempt: u32, timeout: Duration) -> Attempt {
    let (tx, rx) = mpsc::channel();
    let name = spec.name;
    let builder = std::thread::Builder::new().name(format!("exp-{name}"));
    let handle = builder
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                if let Some(plan) = tender_faults::plan() {
                    if plan.experiment_panic(name, attempt) {
                        panic!("injected experiment fault ({name}, attempt {attempt})");
                    }
                }
                (spec.run)()
            }));
            // The receiver is gone after a timeout; ignore the send error.
            let _ = tx.send(result);
        })
        .expect("spawn watchdog thread");
    match rx.recv_timeout(timeout) {
        Ok(Ok(tables)) => {
            let _ = handle.join();
            Attempt::Ok(tables)
        }
        Ok(Err(payload)) => {
            let _ = handle.join();
            Attempt::Panicked(panic_message(payload.as_ref()))
        }
        // Hung attempt: abandon the detached thread and move on.
        Err(_) => Attempt::TimedOut,
    }
}

/// Runs an experiment to its terminal state under the retry policy.
fn run_to_completion(spec: ExperimentSpec, cfg: &RunnerConfig) -> ExperimentOutcome {
    metrics::EXPERIMENTS_RUN.incr();
    let mut last_error = String::new();
    let total_attempts = cfg.retries + 1;
    for attempt in 0..total_attempts {
        if attempt > 0 {
            metrics::EXPERIMENTS_RETRIED.incr();
            // Deterministic linear backoff: wall-clock only.
            std::thread::sleep(cfg.backoff * attempt);
        }
        match run_attempt(spec, attempt, cfg.timeout) {
            Attempt::Ok(tables) => {
                let mut output = String::new();
                for t in &tables {
                    output.push_str(&t.render());
                    output.push('\n');
                }
                return ExperimentOutcome {
                    name: spec.name,
                    output,
                    attempts: attempt + 1,
                    replayed: false,
                    failed: false,
                };
            }
            Attempt::Panicked(msg) => {
                metrics::EXPERIMENTS_PANICKED.incr();
                last_error = format!("panicked: {msg}");
            }
            Attempt::TimedOut => {
                metrics::EXPERIMENTS_TIMED_OUT.incr();
                last_error = format!("timed out after {:.0?}", cfg.timeout);
            }
        }
        eprintln!(
            "runner: {} attempt {}/{} failed: {}",
            spec.name,
            attempt + 1,
            total_attempts,
            last_error
        );
    }
    let table = failure_table(spec.name, total_attempts, &last_error);
    ExperimentOutcome {
        name: spec.name,
        output: {
            let mut s = table.render();
            s.push('\n');
            s
        },
        attempts: total_attempts,
        replayed: false,
        failed: true,
    }
}

/// Runs the whole catalog under `cfg`. See the module docs for semantics.
///
/// # Errors
///
/// Returns an error string when the journal cannot be read or written —
/// resumability is the whole point, so journal I/O failures are loud.
pub fn run_suite(cfg: &RunnerConfig) -> Result<SuiteResult, String> {
    run_specs(&catalog(), cfg)
}

/// [`run_suite`] over an explicit spec list (tests use a tiny catalog).
pub fn run_specs(specs: &[ExperimentSpec], cfg: &RunnerConfig) -> Result<SuiteResult, String> {
    let filtered: Vec<ExperimentSpec>;
    let specs = match &cfg.only {
        Some(name) => {
            filtered = specs.iter().filter(|s| s.name == *name).copied().collect();
            if filtered.is_empty() {
                return Err(format!("no experiment named '{name}' in the catalog"));
            }
            &filtered[..]
        }
        None => specs,
    };
    let journal = match (&cfg.journal, cfg.resume) {
        (Some(path), true) => read_journal(path)?,
        _ => Vec::new(),
    };
    let mut writer = match &cfg.journal {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot open journal '{}': {e}", path.display()))?,
        ),
        None => None,
    };

    let mut outcomes = Vec::new();
    let mut executed = 0usize;
    let mut halted = false;
    for (i, spec) in specs.iter().enumerate() {
        if let Some(entry) = journal.iter().find(|e| e.name == spec.name) {
            metrics::EXPERIMENTS_SKIPPED.incr();
            eprintln!("runner: {} replayed from journal (skipped)", spec.name);
            outcomes.push(ExperimentOutcome {
                name: spec.name,
                output: entry.output.clone(),
                attempts: 0,
                replayed: true,
                failed: entry.failed,
            });
            continue;
        }
        if cfg.halt_after.is_some_and(|n| executed >= n) {
            halted = i < specs.len();
            break;
        }
        let outcome = run_to_completion(*spec, cfg);
        executed += 1;
        if let Some(w) = writer.as_mut() {
            append_journal(w, &outcome).map_err(|e| format!("cannot append to journal: {e}"))?;
        }
        outcomes.push(outcome);
    }
    Ok(SuiteResult { outcomes, halted })
}

/// One journal line: a completed experiment and its rendered output.
struct JournalEntry {
    name: String,
    output: String,
    failed: bool,
}

fn append_journal(w: &mut std::fs::File, o: &ExperimentOutcome) -> std::io::Result<()> {
    let line = format!(
        "{{\"name\":\"{}\",\"failed\":{},\"output\":\"{}\"}}\n",
        escape(o.name),
        o.failed,
        escape(&o.output)
    );
    w.write_all(line.as_bytes())?;
    w.flush()
}

fn read_journal(path: &std::path::Path) -> Result<Vec<JournalEntry>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        // A missing journal on --resume just means "nothing done yet".
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read journal '{}': {e}", path.display())),
    };
    let mut entries = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parse = || -> Option<JournalEntry> {
            Some(JournalEntry {
                name: string_field(line, "name")?,
                output: string_field(line, "output")?,
                failed: line.contains("\"failed\":true"),
            })
        };
        match parse() {
            Some(e) => entries.push(e),
            // A torn final line (killed mid-append) is expected; anything
            // else in the middle of the file is corruption worth reporting.
            None if ln + 1 == text.lines().count() => {
                eprintln!("runner: ignoring torn final journal line");
            }
            None => return Err(format!("corrupt journal line {}", ln + 1)),
        }
    }
    Ok(entries)
}

/// JSON string escape for journal values (mirrors the metrics emitter).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Extracts and unescapes the string value of `"key":"…"` from one JSON
/// line written by [`append_journal`]. Returns `None` on malformed input.
fn string_field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4).map(|_| chars.next()).collect::<Option<_>>()?;
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fault plan is process-global, so every test that runs specs (or
    /// installs a plan) serializes here to keep injected faults scoped.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn ok_tables() -> Vec<Table> {
        let mut t = Table::new("ok experiment", &["A"]);
        t.row(vec!["1".into()]);
        vec![t]
    }

    fn panicky_tables() -> Vec<Table> {
        panic!("organic failure");
    }

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "tender-runner-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn fast_cfg() -> RunnerConfig {
        RunnerConfig {
            retries: 1,
            timeout: Duration::from_secs(30),
            backoff: Duration::from_millis(1),
            ..RunnerConfig::default()
        }
    }

    #[test]
    fn panicking_experiment_is_isolated_and_reported() {
        let _lock = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let specs = [
            ExperimentSpec {
                name: "good",
                run: ok_tables,
            },
            ExperimentSpec {
                name: "bad",
                run: panicky_tables,
            },
            ExperimentSpec {
                name: "also-good",
                run: ok_tables,
            },
        ];
        let r = run_specs(&specs, &fast_cfg()).unwrap();
        assert_eq!(r.outcomes.len(), 3);
        assert!(!r.outcomes[0].failed && !r.outcomes[2].failed);
        assert!(r.outcomes[1].failed);
        assert_eq!(r.outcomes[1].attempts, 2);
        assert!(r.outcomes[1].output.contains("organic failure"));
        assert!(r.any_failed());
        assert!(!r.halted);
    }

    #[test]
    fn journal_round_trips_and_resume_skips_completed() {
        let _lock = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let path = tmp_path("resume");
        std::fs::remove_file(&path).ok();
        let specs = [
            ExperimentSpec {
                name: "first",
                run: ok_tables,
            },
            ExperimentSpec {
                name: "second",
                run: ok_tables,
            },
        ];
        // Halt after one experiment (the deterministic interrupt).
        let cfg = RunnerConfig {
            journal: Some(path.clone()),
            halt_after: Some(1),
            ..fast_cfg()
        };
        let r1 = run_specs(&specs, &cfg).unwrap();
        assert!(r1.halted);
        assert_eq!(r1.outcomes.len(), 1);

        // Resume: first replays, second executes; outputs match a clean run.
        let cfg = RunnerConfig {
            journal: Some(path.clone()),
            resume: true,
            ..fast_cfg()
        };
        let r2 = run_specs(&specs, &cfg).unwrap();
        assert_eq!(r2.outcomes.len(), 2);
        assert!(r2.outcomes[0].replayed && !r2.outcomes[1].replayed);
        let clean = run_specs(&specs, &fast_cfg()).unwrap();
        for (a, b) in r2.outcomes.iter().zip(&clean.outcomes) {
            assert_eq!(a.output, b.output);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn escape_round_trips_awkward_output() {
        let nasty = "line\nwith \"quotes\", back\\slash, tab\t and \u{1} ctrl";
        let line = format!("{{\"output\":\"{}\"}}", escape(nasty));
        assert_eq!(string_field(&line, "output").unwrap(), nasty);
    }

    #[test]
    fn watchdog_times_out_hung_experiments() {
        let _lock = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        fn hang() -> Vec<Table> {
            std::thread::sleep(Duration::from_secs(60));
            Vec::new()
        }
        let specs = [ExperimentSpec {
            name: "hung",
            run: hang,
        }];
        let cfg = RunnerConfig {
            retries: 0,
            timeout: Duration::from_millis(50),
            backoff: Duration::from_millis(1),
            ..RunnerConfig::default()
        };
        let before = metrics::EXPERIMENTS_TIMED_OUT.get();
        let r = run_specs(&specs, &cfg).unwrap();
        assert!(r.outcomes[0].failed);
        assert!(r.outcomes[0].output.contains("timed out"));
        assert_eq!(metrics::EXPERIMENTS_TIMED_OUT.get(), before + 1);
    }

    #[test]
    fn injected_experiment_fault_is_retried_to_success() {
        let _lock = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Find a seed whose exp-site decision fails "flaky" on attempt 0
        // and passes on attempt 1 (decisions are keyed by (name, attempt),
        // so a retry can succeed where the first attempt failed).
        let plan = (0..200u64)
            .map(|s| tender_faults::FaultPlan::parse(s, "exp=0.65").unwrap())
            .find(|p| p.experiment_panic("flaky", 0) && !p.experiment_panic("flaky", 1))
            .expect("some seed fails attempt 0 and passes attempt 1");
        let _guard = tender_faults::PlanGuard::install(plan);
        let specs = [ExperimentSpec {
            name: "flaky",
            run: ok_tables,
        }];
        let r = run_specs(&specs, &fast_cfg()).unwrap();
        assert!(!r.outcomes[0].failed);
        assert_eq!(r.outcomes[0].attempts, 2);
    }
}
