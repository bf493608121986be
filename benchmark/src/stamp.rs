//! What a results file says about the machine and build it came from.

use std::process::Command;

use crate::json::Json;
use crate::workloads::{Sizes, TRAFFIC_SEED};

/// First line of a command's stdout, if it ran and succeeded. The child has
/// exited by the time this returns.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()
        .map(str::to_string)
}

/// 1-minute load average (`None` where `/proc/loadavg` does not exist).
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Git revision of the working directory and whether it has uncommitted
/// changes. Only asked when the directory *is* a checkout root, so a run in
/// an exported tree never searches parent directories for a repository.
fn git_state() -> (String, bool) {
    if !std::path::Path::new(".git").exists() {
        return ("unknown".into(), false);
    }
    let rev = first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .is_ok_and(|o| !o.stdout.is_empty());
    (rev, dirty)
}

/// The stamp every results file carries.
pub struct Stamp {
    pub git_rev: String,
    pub git_dirty: bool,
    pub nproc: usize,
    pub threads: usize,
    pub gemm_backend: &'static str,
    pub rustc: String,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub sizes: Sizes,
    pub load_start: Option<f64>,
}

impl Stamp {
    /// Captures everything but the end-of-run load average.
    pub fn capture(threads: usize, seed: u64, seconds: f64, smoke: bool, sizes: Sizes) -> Self {
        let (git_rev, git_dirty) = git_state();
        Self {
            git_rev,
            git_dirty,
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            threads,
            // The process default: the benchmark never calls `set_backend`
            // and strips `TENDER_BACKEND`, so a later dispatch change shows.
            gemm_backend: tender::gemm::current().label(),
            rustc: first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            seed,
            seconds,
            smoke,
            sizes,
            load_start: load_average(),
        }
    }

    /// A warning when the machine was busy with something else: a load
    /// average more than 1.0 above the benchmark's own thread count.
    pub fn noise_warning(&self, load_end: Option<f64>) -> Option<String> {
        let worst = self
            .load_start
            .into_iter()
            .chain(load_end)
            .fold(0.0, f64::max);
        (worst > self.threads as f64 + 1.0).then(|| {
            format!(
                "noise warning: 1-min load average {worst:.2} with {} benchmark threads — timings are suspect",
                self.threads
            )
        })
    }

    pub fn to_json(&self, load_end: Option<f64>) -> Json {
        let load = |l: Option<f64>| l.map_or(Json::Null, Json::Num);
        Json::obj([
            ("git_rev", Json::str(&self.git_rev)),
            ("git_dirty", Json::Bool(self.git_dirty)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("gemm_backend", Json::str(self.gemm_backend)),
            ("rustc", Json::str(&self.rustc)),
            ("seed", Json::Num(self.seed as f64)),
            ("traffic_seed", Json::Num(TRAFFIC_SEED as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("smoke", Json::Bool(self.smoke)),
            ("load_average_start", load(self.load_start)),
            ("load_average_end", load(load_end)),
            (
                "operation_counts",
                Json::obj(
                    self.sizes
                        .pairs()
                        .into_iter()
                        .map(|(k, v)| (k, Json::Num(v as f64))),
                ),
            ),
        ])
    }
}
