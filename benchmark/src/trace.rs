//! Outside-in span recorder for the traced pass.
//!
//! Every span wraps one call the benchmark makes into a layer of `tender`
//! (or one replayed phase / probe); nothing inside the library is
//! instrumented. Spans live in a buffer preallocated before timing starts
//! and are written out — if asked — only when the run ends. A disabled
//! tracer costs one branch per call, so the untraced pass runs the very
//! same workload code.

use std::collections::BTreeMap;
use std::time::Instant;

use tender::metrics as m;

use crate::json::Json;

/// Public `tender_metrics` counters snapshotted at every span boundary, so
/// work counts are attributed where the work happens.
pub const COUNTER_NAMES: [&str; 5] = [
    "decode_macs",
    "kv_int_dot_macs",
    "page_allocs",
    "pool_parallel_batches",
    "implicit_matmuls",
];

fn snapshot() -> [u64; 5] {
    [
        m::engine::DECODE_MACS.get(),
        m::engine::KV_INT_DOT_MACS.get(),
        m::kv_arena::PAGE_ALLOCS.get(),
        m::pool::PARALLEL_BATCHES.get(),
        m::kernel::IMPLICIT_MATMULS.get(),
    ]
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `req` is the session / request / round the call
/// belongs to, so the spans of one request share an identifier.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u32,
    /// Counter deltas across the span, in [`COUNTER_NAMES`] order.
    pub counters: [u64; 5],
}

/// Per-name aggregate: calls, total time, and self time (total minus the
/// part covered by child spans).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The recorder. [`Tracer::off`] records nothing.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing (the untraced pass).
    pub fn off() -> Self {
        Self {
            enabled: false,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer with room for `capacity` spans up front.
    pub fn on(capacity: usize) -> Self {
        Self {
            enabled: true,
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
        }
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through the
    /// tracer it is handed become children.
    #[inline]
    pub fn scope<R>(&mut self, name: &'static str, req: u32, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            req,
            counters: snapshot(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let after = snapshot();
        let span = &mut self.spans[id as usize];
        span.end_ns = self.t0.elapsed().as_nanos() as u64;
        for (c, a) in span.counters.iter_mut().zip(after) {
            // `reset_all` between repetitions can move a counter backwards
            // across an enclosing span; such a delta is meaningless, not
            // negative.
            *c = a.saturating_sub(*c);
        }
        out
    }

    /// A leaf span around one call into the library.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, req: u32, f: impl FnOnce() -> R) -> R {
        self.scope(name, req, |_| f())
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self time, names in alphabetical order.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// The spans as JSON lines (one object per span, in start order).
    pub fn to_jsonl(&self) -> String {
        let num = |n: u64| Json::Num(n as f64);
        let mut out = String::with_capacity(self.spans.len() * 160);
        for (id, s) in self.spans.iter().enumerate() {
            let counters = COUNTER_NAMES
                .iter()
                .zip(s.counters)
                .map(|(k, v)| (*k, num(v)));
            let line = Json::obj([
                ("id", num(id as u64)),
                ("name", Json::str(s.name)),
                ("start_ns", num(s.start_ns)),
                ("end_ns", num(s.end_ns)),
                (
                    "parent",
                    if s.parent == NO_PARENT {
                        Json::Null
                    } else {
                        num(u64::from(s.parent))
                    },
                ),
                ("req", num(u64::from(s.req))),
                ("counters", Json::obj(counters)),
            ]);
            out.push_str(&line.to_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::on(8);
        t.scope("outer", 1, |t| {
            t.call("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.call("inner", 1, || ());
        });
        let totals = t.totals();
        assert_eq!(totals["inner"].count, 2);
        assert_eq!(totals["outer"].count, 1);
        assert_eq!(
            totals["outer"].self_ns,
            totals["outer"].total_ns - totals["inner"].total_ns
        );
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.call("x", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
