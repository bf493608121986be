//! The report's shape, pinned.
//!
//! `report_skeleton.txt` holds one `section.key: kind` line per exported
//! metric, in report order. It was captured from the last hand-written
//! `report::build` (PR 16) and is what CI's `metrics-smoke` job compares the
//! emitted JSON against, so a metric added, renamed, moved or retyped in the
//! table shows up as a one-line diff of that file in review.

use tender_metrics::{self as metrics, Report, Value};

fn kind(v: &Value) -> &'static str {
    const TIMER_KEYS: [&str; 4] = ["count", "total_ns", "mean_ns", "max_ns"];
    match v {
        Value::U64(_) => "u64",
        Value::Array(_) => "array",
        Value::Object(f) if f.iter().map(|(k, _)| k.as_str()).eq(TIMER_KEYS) => "timer",
        Value::Object(_) => "object",
    }
}

fn skeleton(r: &Report) -> String {
    let line =
        |section: &str, (key, v): &(String, Value)| format!("{section}.{key}: {}\n", kind(v));
    r.sections
        .iter()
        .flat_map(|s| s.fields.iter().map(move |f| line(s.name, f)))
        .collect()
}

fn is_zero(v: &Value) -> bool {
    match v {
        Value::U64(n) => *n == 0,
        Value::Array(xs) => xs.iter().all(|&x| x == 0),
        Value::Object(fields) => fields.iter().all(|(_, v)| is_zero(v)),
    }
}

#[test]
fn report_matches_the_golden_skeleton() {
    let actual = skeleton(&metrics::report());
    assert!(
        actual == include_str!("report_skeleton.txt"),
        "report() no longer matches crates/metrics/tests/report_skeleton.txt; \
         if the change is intended, replace the file with:\n{actual}"
    );
}

/// One metric of each type is ticked; `reset_all` must zero everything that
/// accumulates and leave the levels (live state) exactly where they were.
#[test]
fn reset_all_zeroes_everything_but_levels() {
    metrics::kernel::OVERFLOW_EVENTS.add(3); // Counter
    metrics::serve::LATENCY_ITERS_P50.set(9); // Gauge
    metrics::pool::QUEUE_DEPTH_MAX.observe(5); // MaxGauge
    metrics::pool::BATCH_LATENCY.record_ns(11); // Timer
    metrics::kernel::GROUP_QUANTIZED.add(2, 7); // CounterBank
    metrics::model::LAYER_FORWARD.record_ns(3, 13); // TimerBank
    metrics::kv_arena::ARENAS.add(2); // Level
    metrics::kv_arena::PAGES[1].add(4); // [Level; N]

    let ticked = [
        ("kernel", "overflow_events"),
        ("serve", "latency_iters_p50"),
        ("pool", "queue_depth_max"),
        ("pool", "batch_latency"),
        ("kernel", "group_quantized"),
        ("model", "layer_forward"),
        ("kv_arena", "arenas"),
        ("kv_arena", "pages"),
    ];
    let before = metrics::report();
    let field = |r: &Report, (section, key): (&str, &str)| -> Value {
        let fields = &r.section(section).expect("section").fields;
        let (_, v) = fields.iter().find(|(k, _)| k == key).expect("key");
        v.clone()
    };
    for at in ticked {
        assert!(!is_zero(&field(&before, at)), "{at:?} did not move");
    }

    metrics::reset_all();

    let after = metrics::report();
    let levels = [("kv_arena", "arenas"), ("kv_arena", "pages")];
    for s in &after.sections {
        for (key, v) in &s.fields {
            let at = (s.name, key.as_str());
            if levels.contains(&at) {
                assert_eq!(*v, field(&before, at), "{at:?} is live state");
            } else {
                assert!(is_zero(v), "{at:?} survived reset_all: {v:?}");
            }
        }
    }
    assert_eq!(field(&after, levels[1]), Value::Array(vec![0, 4, 0]));
}
