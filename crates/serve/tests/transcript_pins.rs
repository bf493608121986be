//! Pins `Scheduler::run` transcripts by value. The hashes were recorded
//! at the commit *before* `run` was restructured into a run-state struct,
//! so the restructure is checked against the old loop's bytes, not only
//! run-to-run.

use std::sync::Mutex;

use tender_faults::{hash_bytes, FaultPlan, PlanGuard};
use tender_model::shape::ModelShape;
use tender_model::synthetic::SyntheticLlm;
use tender_model::KvCacheMode;
use tender_serve::{kv_page_bytes, Scheduler, ServeConfig, ServeReport};

/// The fault plan is process-global.
static LOCK: Mutex<()> = Mutex::new(());

fn run(cfg: ServeConfig) -> ServeReport {
    let shape = ModelShape::tiny_test();
    let model = SyntheticLlm::generate(&shape, 11).reference();
    Scheduler::new(&model, cfg).run()
}

fn assert_pinned(report: &ServeReport, want: u64) {
    assert_eq!(
        hash_bytes(report.transcript.as_bytes()),
        want,
        "transcript moved:\n{}",
        report.transcript
    );
}

#[test]
fn default_config_transcript_is_pinned() {
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let report = run(ServeConfig::new(16, 42));
    assert_eq!(report.unresolved, 0);
    assert_pinned(&report, 3418584838217728529);
}

#[test]
fn pressured_shared_prefix_transcript_is_pinned() {
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let shape = ModelShape::tiny_test();
    let page = kv_page_bytes(&shape, KvCacheMode::F32, 4);
    let report = run(ServeConfig {
        shared_prefix: 8,
        page_rows: 4,
        deadline_steps: 500,
        decode_len: (8, 24),
        kv_arena_bytes: 12 * page,
        kv_watermark: 0.5,
        kv_budget_bytes: 10 * page,
        ..ServeConfig::new(16, 42)
    });
    // The budget is tight enough to exercise every refusal the scheduler
    // has, and the arena cap makes the boundary drain demote.
    assert!(report.rejected_kv > 0, "{}", report.transcript);
    assert!(
        report.transcript.contains("truncated at kv budget"),
        "{}",
        report.transcript
    );
    assert!(report.kv_demoted_pages > 0, "{}", report.transcript);
    assert_eq!(report.unresolved, 0);
    assert_pinned(&report, 1332389325183908452);
}

#[test]
fn chaos_plan_transcript_is_pinned() {
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = PlanGuard::install(FaultPlan::parse(7, "sched=0.05,pool=0.01").unwrap());
    let report = run(ServeConfig::new(16, 42));
    assert_eq!(report.unresolved, 0);
    assert_pinned(&report, 4294365314202225022);
}
