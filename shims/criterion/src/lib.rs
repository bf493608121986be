//! Offline shim for the `criterion` crate.
//!
//! Implements the subset of the criterion API this workspace's benches use:
//! `criterion_group!`/`criterion_main!`, benchmark groups,
//! `bench_function`/`bench_with_input`, `BenchmarkId`, and `Bencher::iter`.
//! Measurement is a fixed wall-clock budget per benchmark (`BENCH_BUDGET_MS`,
//! default 200 ms) rather than criterion's statistical sampling, and results
//! print as one line per benchmark. If `BENCH_SNAPSHOT` names a file path,
//! all measurements are written there as a JSON array when the `Criterion`
//! value drops. See `shims/README.md`.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// One completed measurement.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// `group/id` path for the benchmark.
    pub id: String,
    /// Number of timed iterations.
    pub iters: u64,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest observed iteration, nanoseconds.
    pub min_ns: f64,
}

/// Top-level driver; collects every measurement made through it.
#[derive(Debug, Default)]
pub struct Criterion {
    records: Vec<BenchRecord>,
}

impl Criterion {
    /// Accepted for API compatibility; the shim has no CLI configuration.
    pub fn configure_from_args(self) -> Self {
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run_one(id.to_string(), f);
        self
    }

    fn run_one<F>(&mut self, id: String, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            budget: budget(),
            iters: 0,
            total: Duration::ZERO,
            min: Duration::MAX,
        };
        f(&mut bencher);
        let iters = bencher.iters.max(1);
        let record = BenchRecord {
            id,
            iters: bencher.iters,
            mean_ns: bencher.total.as_nanos() as f64 / iters as f64,
            min_ns: if bencher.min == Duration::MAX {
                0.0
            } else {
                bencher.min.as_nanos() as f64
            },
        };
        println!(
            "{:<48} mean {:>12.1} ns  ({} iters, min {:.1} ns)",
            record.id, record.mean_ns, record.iters, record.min_ns
        );
        self.records.push(record);
    }
}

impl Drop for Criterion {
    fn drop(&mut self) {
        let Ok(path) = std::env::var("BENCH_SNAPSHOT") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        let mut out = String::from("[\n");
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            out.push_str(&format!(
                "  {{\"id\": {:?}, \"iters\": {}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}}}{}\n",
                r.id, r.iters, r.mean_ns, r.min_ns, comma
            ));
        }
        out.push_str("]\n");
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("failed to write BENCH_SNAPSHOT to {path}: {e}");
        }
    }
}

/// A named family of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.criterion.run_one(format!("{}/{}", self.name, id.0), f);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        self.criterion
            .run_one(format!("{}/{}", self.name, id.0), |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// A `function_name/parameter` benchmark identifier.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        Self(format!("{}/{}", function_name.into(), parameter))
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        Self(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self(s.to_string())
    }
}

/// Times closures handed to it by a benchmark body.
#[derive(Debug)]
pub struct Bencher {
    budget: Duration,
    iters: u64,
    total: Duration,
    min: Duration,
}

impl Bencher {
    /// Calls `f` repeatedly, once untimed for warmup and then timed until
    /// the wall-clock budget is spent.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        std::hint::black_box(f());
        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            std::hint::black_box(f());
            let dt = t0.elapsed();
            self.iters += 1;
            self.total += dt;
            self.min = self.min.min(dt);
            if start.elapsed() >= self.budget || self.iters >= 100_000 {
                break;
            }
        }
    }
}

fn budget() -> Duration {
    let ms = std::env::var("BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(200);
    Duration::from_millis(ms)
}

/// Re-export for code that uses `criterion::black_box`.
pub use std::hint::black_box;

/// Declares a benchmark-group function that runs each target in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(criterion: &mut $crate::Criterion) {
            $($target(criterion);)+
        }
    };
}

/// Declares `main` for a `harness = false` bench binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // Cargo passes `--bench` (and possibly a filter) to the binary;
            // the shim runs everything regardless.
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($group(&mut criterion);)+
        }
    };
}
