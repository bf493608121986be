//! Seeded, deterministic fault injection for the Tender reproduction.
//!
//! A [`FaultPlan`] decides — as a *pure function* of a seed, a site tag, and
//! the site's stable integer keys — whether a fault fires at a given named
//! injection site. Decisions never depend on execution order, thread count,
//! or wall-clock time, so a fixed `--fault-seed` produces byte-identical
//! reports at 1 and 4 threads, preserving the pool's determinism contract.
//!
//! Injection sites (consumers live in the crates that own the data):
//!
//! | tag    | keys                      | effect                               |
//! |--------|---------------------------|--------------------------------------|
//! | `blob` | calibration-site key      | bit-flips in the serialized blob     |
//! | `wnan` | (layer, channel)          | NaN planted in a synthetic weight    |
//! | `anan` | (layer, channel)          | NaN planted in a captured activation |
//! | `dram` | burst address             | DRAM read bit-error (ECC retry cost) |
//! | `pool` | (batch size, item index)  | panic inside a pool task             |
//! | `exp`  | (experiment name, attempt)| panic at the start of an experiment  |
//! | `sched`| (run key, iteration)      | drop one scheduler iteration's work  |
//!
//! The plan is installed process-globally with [`install`]; hot paths gate on
//! the lock-free [`active`] flag so the fault-free configuration costs one
//! relaxed atomic load. Installing a plan with a nonzero `pool` rate also
//! registers the pool's task fault hook (`tender_tensor::pool` cannot depend
//! on this crate, so the hook is injected from here).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use tender_metrics as metrics;
use tender_tensor::pool;
use tender_tensor::rng::DetRng;

/// SplitMix64 finalizer — the same mixer `DetRng` seeds itself with. Used
/// here to fold site tags and keys into a single well-distributed seed.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stable 64-bit hash of a byte string (FNV-1a folded through [`mix`]).
///
/// Public so injection sites can derive order-independent keys from the data
/// they operate on (e.g. a calibration blob's content) instead of from
/// execution order, which would break thread-count determinism.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix(h)
}

/// Per-site fault rates plus the seed that makes every decision reproducible.
///
/// All rates are probabilities in `[0, 1]`; a rate of `0` disables the site
/// entirely and a rate of `1` fires on every decision.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Probability that one calibration blob gets bit-flipped.
    pub blob_rate: f64,
    /// Per-(layer, channel) probability of a NaN planted in synthetic weights.
    pub weight_nan_rate: f64,
    /// Per-(layer, channel) probability of a NaN planted in captured
    /// calibration activations.
    pub act_nan_rate: f64,
    /// Per-burst-address probability of a DRAM read bit-error.
    pub dram_rate: f64,
    /// Per-(batch size, item) probability of a panic inside a pool task.
    pub pool_rate: f64,
    /// Per-(experiment, attempt) probability of an injected experiment panic.
    pub exp_rate: f64,
    /// Per-(run key, iteration) probability that the serving scheduler
    /// drops one iteration's worth of work (deadlines still advance).
    pub sched_rate: f64,
}

/// Error from parsing a `--fault-plan` spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError(pub String);

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for PlanParseError {}

impl FaultPlan {
    /// An empty plan (all rates zero) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            blob_rate: 0.0,
            weight_nan_rate: 0.0,
            act_nan_rate: 0.0,
            dram_rate: 0.0,
            pool_rate: 0.0,
            exp_rate: 0.0,
            sched_rate: 0.0,
        }
    }

    /// The moderate default used by a bare `--fault-seed N`: enough blob,
    /// activation, and DRAM faults to exercise every degradation path while
    /// leaving panic injection (pool/exp) off so the suite still completes
    /// without retries.
    ///
    /// The activation-NaN rate is deliberately small: a NaN channel fails a
    /// site at the finiteness screen *before* its calibration is ever
    /// encoded, so a high `anan` rate would starve the blob-corruption path
    /// of clean sites (the per-site NaN probability compounds per channel —
    /// at 0.04 a 128-channel site is clean less than 1% of the time).
    pub fn default_plan(seed: u64) -> Self {
        Self {
            blob_rate: 0.25,
            act_nan_rate: 0.005,
            dram_rate: 1e-4,
            ..Self::new(seed)
        }
    }

    /// Parses a comma-separated `site=rate` spec, e.g.
    /// `"blob=0.5,anan=0.1,pool=0.001"`. Unlisted sites stay at rate zero.
    /// Sites: `blob`, `wnan`, `anan`, `dram`, `pool`, `exp`, `sched`.
    pub fn parse(seed: u64, spec: &str) -> Result<Self, PlanParseError> {
        let mut plan = Self::new(seed);
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (site, rate) = part
                .split_once('=')
                .ok_or_else(|| PlanParseError(format!("expected site=rate, got `{part}`")))?;
            let rate: f64 = rate
                .trim()
                .parse()
                .map_err(|_| PlanParseError(format!("bad rate in `{part}`")))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(PlanParseError(format!(
                    "rate in `{part}` must be within [0, 1]"
                )));
            }
            match site.trim() {
                "blob" => plan.blob_rate = rate,
                "wnan" => plan.weight_nan_rate = rate,
                "anan" => plan.act_nan_rate = rate,
                "dram" => plan.dram_rate = rate,
                "pool" => plan.pool_rate = rate,
                "exp" => plan.exp_rate = rate,
                "sched" => plan.sched_rate = rate,
                other => {
                    return Err(PlanParseError(format!(
                        "unknown site `{other}` (expected blob|wnan|anan|dram|pool|exp|sched)"
                    )))
                }
            }
        }
        Ok(plan)
    }

    /// The seed every decision is derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Pure keyed coin flip: true with probability `rate`, independent of
    /// call order. The decision stream is a fresh `DetRng` seeded from
    /// (seed, tag, keys), so distinct sites never correlate.
    fn chance(&self, tag: &str, keys: &[u64], rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let mut rng = self.site_rng(tag, keys);
        (rng.uniform() as f64) < rate
    }

    /// A deterministic RNG unique to (seed, tag, keys) — for sites that need
    /// more randomness than a single coin flip (e.g. picking flip positions).
    fn site_rng(&self, tag: &str, keys: &[u64]) -> DetRng {
        let mut h = mix(self.seed ^ hash_bytes(tag.as_bytes()));
        for &k in keys {
            h = mix(h ^ k);
        }
        DetRng::new(h)
    }

    /// Maybe flip bits in a serialized calibration blob. `key` must be a
    /// stable, data-derived identity for the calibration site (never an
    /// execution-order index). Returns true if the blob was corrupted.
    pub fn corrupt_blob(&self, key: u64, blob: &mut [u8]) -> bool {
        if blob.is_empty() || !self.chance("blob", &[key], self.blob_rate) {
            return false;
        }
        // Three independent single-bit flips: one flip can land in a low
        // mantissa bit and decode cleanly; three make a typed DecodeError
        // the overwhelmingly likely outcome while staying deterministic.
        let mut rng = self.site_rng("blob-pos", &[key]);
        for _ in 0..3 {
            let pos = rng.below(blob.len());
            let bit = rng.below(8) as u32;
            blob[pos] ^= 1 << bit;
        }
        metrics::faults::INJECTED_BLOB.incr();
        true
    }

    /// Whether to plant a NaN in synthetic weight (layer, channel).
    pub fn weight_nan(&self, layer: usize, channel: usize) -> bool {
        let hit = self.chance(
            "wnan",
            &[layer as u64, channel as u64],
            self.weight_nan_rate,
        );
        if hit {
            metrics::faults::INJECTED_WEIGHT_NAN.incr();
        }
        hit
    }

    /// Whether to plant a NaN in a captured calibration activation at
    /// `channel` of the capture identified by `capture_key` (a content hash
    /// of the captured matrix, in the spirit of [`Self::corrupt_blob`]).
    /// Keying on content rather than (layer, channel) alone keeps a single
    /// verdict from blanketing every experiment and scheme that revisits
    /// the same layer — distinct captures fault independently, so at
    /// moderate rates some sites stay clean and the *other* degradation
    /// paths (blob corruption) still get exercised in the same run.
    /// Counter-free: callers decide per captured matrix and count one
    /// injection per poisoned matrix (see `injected_act_nan`).
    pub fn act_nan(&self, capture_key: u64, channel: usize) -> bool {
        self.chance("anan", &[capture_key, channel as u64], self.act_nan_rate)
    }

    /// Records `n` activation-NaN injections (split from the decision so a
    /// shared (layer, channel) verdict applied to one matrix counts once).
    pub fn injected_act_nan(&self, n: u64) {
        metrics::faults::INJECTED_ACT_NAN.add(n);
    }

    /// Whether a DRAM burst read at `addr` suffers a bit-error. Keyed on the
    /// address alone, so a faulty address misbehaves consistently — like a
    /// weak cell — and the decision is independent of access order.
    pub fn dram_bit_error(&self, addr: u64) -> bool {
        let hit = self.chance("dram", &[addr], self.dram_rate);
        if hit {
            metrics::faults::INJECTED_DRAM.incr();
        }
        hit
    }

    /// Whether pool task `i` of a batch of `n` items should panic.
    pub fn pool_panic(&self, n: usize, i: usize) -> bool {
        let hit = self.chance("pool", &[n as u64, i as u64], self.pool_rate);
        if hit {
            metrics::faults::INJECTED_POOL.incr();
        }
        hit
    }

    /// Whether the serving scheduler should drop (stall) iteration
    /// `iteration` of the run identified by `run_key` — one iteration's
    /// worth of prefill/decode work is skipped while admission and
    /// deadline bookkeeping still advance. Keyed on logical scheduler
    /// time plus a config-derived run key, never on wall-clock or thread
    /// interleaving, so the stall pattern is byte-identical at any thread
    /// count.
    pub fn sched_stall(&self, run_key: u64, iteration: u64) -> bool {
        let hit = self.chance("sched", &[run_key, iteration], self.sched_rate);
        if hit {
            metrics::faults::INJECTED_SCHED.incr();
        }
        hit
    }

    /// Whether attempt `attempt` of the named experiment should panic.
    /// Keyed on (name, attempt) so a seed can fail attempt 0 and pass the
    /// retry — exercising the runner's bounded-retry policy.
    pub fn experiment_panic(&self, name: &str, attempt: u32) -> bool {
        let hit = self.chance(
            "exp",
            &[hash_bytes(name.as_bytes()), attempt as u64],
            self.exp_rate,
        );
        if hit {
            metrics::faults::INJECTED_EXP.incr();
        }
        hit
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);

/// Installs `plan` as the process-global fault plan and, when its pool rate
/// is nonzero, registers the pool task fault hook. Replaces any prior plan.
pub fn install(plan: FaultPlan) {
    let plan = Arc::new(plan);
    if plan.pool_rate > 0.0 {
        let hooked = Arc::clone(&plan);
        pool::set_task_fault_hook(Some(Arc::new(move |n, i| {
            if hooked.pool_panic(n, i) {
                panic!("injected pool task fault (item {i} of {n})");
            }
        })));
    } else {
        pool::set_task_fault_hook(None);
    }
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = Some(plan);
    ACTIVE.store(true, Ordering::Release);
}

/// Removes the global fault plan and the pool hook. Fault-free operation.
pub fn clear() {
    ACTIVE.store(false, Ordering::Release);
    pool::set_task_fault_hook(None);
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Lock-free fast path: is any fault plan installed?
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// The installed plan, if any. Costs a mutex lock — gate on [`active`] first
/// in hot paths.
pub fn plan() -> Option<Arc<FaultPlan>> {
    if !active() {
        return None;
    }
    PLAN.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// RAII guard for tests: installs a plan on construction, restores the
/// previous plan on drop. Tests that install plans must hold the guard (and
/// serialize on their own mutex when sharing a process).
pub struct PlanGuard {
    prev: Option<Arc<FaultPlan>>,
}

impl PlanGuard {
    /// Installs `plan`, remembering whatever was installed before.
    pub fn install(plan: FaultPlan) -> Self {
        let prev = self::plan();
        install(plan);
        Self { prev }
    }
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        match self.prev.take() {
            Some(p) => install((*p).clone()),
            None => clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_seed_and_keys() {
        let a = FaultPlan::parse(7, "anan=0.1,dram=0.05").unwrap();
        let b = FaultPlan::parse(7, "anan=0.1,dram=0.05").unwrap();
        for layer in 0..8 {
            for ch in 0..64 {
                assert_eq!(a.act_nan(layer, ch), b.act_nan(layer, ch));
            }
        }
        // Interleaving other queries must not perturb decisions.
        let before: Vec<bool> = (0..100).map(|ch| a.act_nan(3, ch)).collect();
        for addr in 0..1000 {
            a.dram_bit_error(addr);
        }
        let after: Vec<bool> = (0..100).map(|ch| a.act_nan(3, ch)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn different_seeds_differ_and_rates_bound_behavior() {
        let a = FaultPlan::parse(1, "anan=0.5").unwrap();
        let b = FaultPlan::parse(2, "anan=0.5").unwrap();
        let va: Vec<bool> = (0..256).map(|c| a.act_nan(0, c)).collect();
        let vb: Vec<bool> = (0..256).map(|c| b.act_nan(0, c)).collect();
        assert_ne!(va, vb);
        let hits = va.iter().filter(|&&h| h).count();
        assert!(hits > 64 && hits < 192, "rate 0.5 wildly off: {hits}/256");

        let off = FaultPlan::new(9);
        assert!((0..256).all(|c| !off.act_nan(0, c)));
        let on = FaultPlan::parse(9, "anan=1").unwrap();
        assert!((0..256).all(|c| on.act_nan(0, c)));
    }

    #[test]
    fn blob_corruption_is_deterministic_and_flips_bits() {
        let plan = FaultPlan::parse(42, "blob=1").unwrap();
        let orig: Vec<u8> = (0..200u8).collect();
        let mut x = orig.clone();
        let mut y = orig.clone();
        assert!(plan.corrupt_blob(77, &mut x));
        assert!(plan.corrupt_blob(77, &mut y));
        assert_eq!(x, y, "same key must corrupt identically");
        assert_ne!(x, orig, "corruption must change the blob");
        let mut z = orig.clone();
        assert!(plan.corrupt_blob(78, &mut z));
        assert_ne!(z, x, "different keys should pick different flips");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse(0, "nope=0.5").is_err());
        assert!(FaultPlan::parse(0, "blob").is_err());
        assert!(FaultPlan::parse(0, "blob=abc").is_err());
        assert!(FaultPlan::parse(0, "blob=1.5").is_err());
        assert!(FaultPlan::parse(0, "blob=-0.1").is_err());
        let p = FaultPlan::parse(0, " blob=0.5 , exp = 0.25 ").unwrap();
        assert_eq!(p.blob_rate, 0.5);
        assert_eq!(p.exp_rate, 0.25);
    }

    #[test]
    fn experiment_panic_varies_by_attempt() {
        // With rate 0.5 over 13 experiments × 4 attempts there must exist a
        // (name, attempt) pair that flips between attempts — the property the
        // runner's retry test relies on.
        let plan = FaultPlan::parse(3, "exp=0.5").unwrap();
        let names = ["fig2_3", "table1", "table2", "table3"];
        let mut saw_flip = false;
        for name in names {
            let first = plan.experiment_panic(name, 0);
            let second = plan.experiment_panic(name, 1);
            if first != second {
                saw_flip = true;
            }
        }
        assert!(saw_flip);
    }

    #[test]
    fn sched_stalls_are_pure_and_keyed_on_run_and_iteration() {
        let a = FaultPlan::parse(5, "sched=0.25").unwrap();
        let b = FaultPlan::parse(5, "sched=0.25").unwrap();
        let va: Vec<bool> = (0..256).map(|t| a.sched_stall(11, t)).collect();
        let vb: Vec<bool> = (0..256).map(|t| b.sched_stall(11, t)).collect();
        assert_eq!(va, vb, "same (seed, run key) must stall identically");
        let other_run: Vec<bool> = (0..256).map(|t| a.sched_stall(12, t)).collect();
        assert_ne!(va, other_run, "distinct runs must stall independently");
        let hits = va.iter().filter(|&&h| h).count();
        assert!(hits > 32 && hits < 128, "rate 0.25 wildly off: {hits}/256");
        assert!((0..64).all(|t| !FaultPlan::new(5).sched_stall(11, t)));
    }

    #[test]
    fn install_clear_round_trip() {
        // Serialize against other tests touching the global via a local lock.
        static LOCK: Mutex<()> = Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(plan().is_none() || active());
        {
            let _guard = PlanGuard::install(FaultPlan::default_plan(7));
            assert!(active());
            assert_eq!(plan().unwrap().seed(), 7);
        }
    }
}
