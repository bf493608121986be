//! End-to-end tests of the `tender-cli` binary (the real executable,
//! via `CARGO_BIN_EXE`).

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tender-cli"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage_and_succeeds() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("simulate"));
}

#[test]
fn no_args_fails_with_usage_on_stderr() {
    let (ok, _, stderr) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn models_and_schemes_listings() {
    let (ok, stdout, _) = run(&["models"]);
    assert!(ok);
    assert!(stdout.contains("OPT-66B"));
    let (ok, stdout, _) = run(&["schemes"]);
    assert!(ok);
    assert!(stdout.contains("Tender@B"));
}

#[test]
fn simulate_prints_speedups() {
    let (ok, stdout, _) = run(&["simulate", "--model", "OPT-6.7B", "--seq", "256"]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("Tender"));
    assert!(stdout.contains("x"));
}

#[test]
fn ppl_fast_mode_runs_end_to_end() {
    let (ok, stdout, stderr) = run(&[
        "ppl", "--model", "OPT-6.7B", "--scheme", "Tender@8", "--fast", "true",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Wiki"), "stdout: {stdout}");
}

/// A rollout length whose sum with the prompt wraps `usize` is still "past
/// the context window": a clean error, not a capacity-overflow panic.
#[test]
fn generate_length_that_wraps_is_a_clean_error() {
    let max = usize::MAX.to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_tender-cli"))
        .args(["generate", "--model", "OPT-6.7B", "--fast", "true"])
        .args(["--prompt", "8", "--generate", &max])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("exceeds the context window"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn unknown_model_is_a_clean_error() {
    let (ok, _, stderr) = run(&["simulate", "--model", "GPT-17"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"));
    assert!(stderr.contains("OPT-6.7B"), "error must list valid names");
}

/// `TENDER_THREADS` sizes every determinism job in CI, so a value the pool
/// cannot use must be named on stderr with the count used instead — never
/// silently replaced — while stdout stays byte-identical.
#[test]
fn malformed_tender_threads_is_named_on_stderr() {
    let generate = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_tender-cli"))
            .env("TENDER_THREADS", threads)
            .args(["generate", "--model", "OPT-6.7B", "--scheme", "Tender@8"])
            .args(["--prompt", "4", "--generate", "2", "--fast", "true"])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "TENDER_THREADS={threads:?}");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (expected, stderr) = generate("1");
    assert_eq!(stderr, "", "a valid value prints nothing");
    for bad in ["0", "four", " 4", ""] {
        let (stdout, stderr) = generate(bad);
        assert_eq!(stdout, expected, "stdout must not move");
        assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
        assert!(
            stderr.contains(&format!("TENDER_THREADS={bad:?}")) && stderr.contains("; using "),
            "stderr must name the rejected value and the count used: {stderr}"
        );
    }
}
