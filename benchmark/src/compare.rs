//! `compare OLD.json NEW.json`: one row per workload × end-to-end metric,
//! judged against the metric's bound *and* the spread of the repetitions.

use crate::json::{parse, Json};
use crate::metrics::{Better, END_TO_END};
use crate::stats::spread;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    /// The repetitions' q1–q3 spread exceeds the bound and the two sides'
    /// repetitions overlap: the runs cannot tell the sides apart.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value and its repetition values.
pub struct Side {
    pub value: f64,
    pub reps: Vec<f64>,
}

impl Side {
    fn range(&self) -> (f64, f64) {
        self.reps
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            })
    }
}

/// Judges `new` against `old` for a metric with direction `better` and
/// regression bound `bound` (a share of the old value).
pub fn judge(old: &Side, new: &Side, better: Better, bound: f64) -> Verdict {
    if old.value == 0.0 {
        return if new.value == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let rise = (new.value - old.value) / old.value.abs();
    let worse_by = match better {
        Better::Lower => rise,
        Better::Higher => -rise,
    };
    let (olo, ohi) = old.range();
    let (nlo, nhi) = new.range();
    let overlap = olo <= nhi && nlo <= ohi;
    if spread(&old.reps).2.max(spread(&new.reps).2) > bound && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        reps: m
            .get("reps")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison table. `Ok(true)` means no row is `worse` and no
/// workload's `fail_share` rose.
///
/// # Errors
///
/// An unreadable or malformed results file.
pub fn run(old_path: &str, new_path: &str) -> Result<bool, String> {
    let (old, new) = (load(old_path)?, load(new_path)?);
    let stamp = |j: &Json, k: &str| {
        j.get("stamp")
            .and_then(|s| s.get(k))
            .map_or("?".to_string(), Json::to_line)
    };
    for k in ["git_rev", "threads", "gemm_backend", "seed", "seconds"] {
        println!("{k:<14} old {:<44} new {}", stamp(&old, k), stamp(&new, k));
    }
    println!(
        "\n{:<15} {:<20} {:>12} {:>12} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    let mut ok = true;
    for w in WORKLOADS {
        let (Some(ow), Some(nw)) = (
            old.get("workloads").and_then(|x| x.get(w)),
            new.get("workloads").and_then(|x| x.get(w)),
        ) else {
            continue;
        };
        for def in END_TO_END {
            let (Some(o), Some(n)) = (side(ow, def.name), side(nw, def.name)) else {
                continue;
            };
            let mut verdict = judge(&o, &n, def.better, def.bound);
            // Any rise in the failed share is a regression, whatever the
            // bound says: a speed-up bought with refusals is not one.
            let mut note = "";
            if def.name == "ok_share" && n.value < o.value {
                verdict = Verdict::Worse;
                note = "  (fail_share rose)";
            }
            ok &= verdict != Verdict::Worse;
            println!(
                "{:<15} {:<20} {:>12.5} {:>12.5} {:>7.3} {:>5.1}%  {}{note}",
                w,
                def.name,
                o.value,
                n.value,
                n.value / o.value,
                def.bound * 100.0,
                verdict.label()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, reps: &[f64]) -> Side {
        Side {
            value,
            reps: reps.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_overlap() {
        let tight_old = s(100.0, &[99.0, 100.0, 101.0]);
        assert_eq!(
            judge(
                &tight_old,
                &s(120.0, &[119.0, 120.0, 121.0]),
                Better::Lower,
                0.1
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                &tight_old,
                &s(80.0, &[79.0, 80.0, 81.0]),
                Better::Lower,
                0.1
            ),
            Verdict::Better
        );
        assert_eq!(
            judge(
                &tight_old,
                &s(80.0, &[79.0, 80.0, 81.0]),
                Better::Higher,
                0.1
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                &tight_old,
                &s(104.0, &[103.0, 104.0, 105.0]),
                Better::Lower,
                0.1
            ),
            Verdict::Unchanged
        );
        // Wide, overlapping repetitions cannot resolve a 15 % rise.
        let noisy_old = s(100.0, &[80.0, 100.0, 125.0]);
        assert_eq!(
            judge(
                &noisy_old,
                &s(115.0, &[90.0, 115.0, 140.0]),
                Better::Lower,
                0.1
            ),
            Verdict::Unresolved
        );
        // Wide but disjoint repetitions still resolve.
        assert_eq!(
            judge(
                &noisy_old,
                &s(200.0, &[160.0, 200.0, 250.0]),
                Better::Lower,
                0.1
            ),
            Verdict::Worse
        );
    }
}
