//! Deterministic-parallelism integration test.
//!
//! The whole point of the worker pool's row-partitioned design is that the
//! *numbers* never depend on the thread count: every output row is computed
//! by exactly one thread in the same operation order as the serial path, and
//! cross-task aggregation is either index-ordered folding or exact integer
//! sums. This test pins that contract end to end: the full experiment suite
//! must print byte-identical stdout (including the kernel-overflow-event
//! totals it prints) whether the pool has one thread (fully inline) or four.
//!
//! Timing goes to stderr in `all_experiments`, so stdout is stable by
//! construction; any nondeterminism introduced by parallel scheduling would
//! show up here as a byte diff.

use std::process::Command;

/// Runs the `all_experiments` binary with the given pool size and returns
/// its stdout bytes.
fn run_suite(threads: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .env("TENDER_FAST", "1")
        .env("TENDER_THREADS", threads)
        .output()
        .expect("spawn all_experiments");
    assert!(
        out.status.success(),
        "all_experiments (TENDER_THREADS={threads}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "suite printed nothing");
    out.stdout
}

#[test]
fn all_experiments_stdout_is_identical_across_thread_counts() {
    let serial = run_suite("1");
    let pooled = run_suite("4");
    // Readable string diff first, then the byte-exact check.
    assert_eq!(
        String::from_utf8_lossy(&serial),
        String::from_utf8_lossy(&pooled),
        "suite output must not depend on the thread count"
    );
    assert_eq!(serial, pooled);
}
