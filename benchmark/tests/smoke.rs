//! Runs the whole benchmark in `--smoke` mode and checks that what it
//! prints and writes is exactly what `BENCHMARK.json` promises: the same
//! workload and metric names, well-formed names, and a unit (and, for
//! end-to-end metrics, a sample count) on every number.

use std::collections::BTreeSet;
use std::process::Command;

use tender_benchmark::json::{parse, Json};
use tender_benchmark::metrics::{END_TO_END, PER_LAYER};
use tender_benchmark::workloads::WORKLOADS;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of every entry of a `BENCHMARK.json` list.
fn declared(manifest: &Json, list: &str) -> Vec<(String, String, String)> {
    manifest
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{list} entry without {k}"))
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn tables_in_code_equal_benchmark_json() {
    let manifest = manifest();
    let code: Vec<(String, String, String)> = END_TO_END
        .iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.label().into()))
        .collect();
    assert_eq!(declared(&manifest, "end_to_end"), code);
    let bounds: Vec<f64> = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end list")
        .iter()
        .map(|e| e.get("bound").and_then(Json::as_f64).expect("bound"))
        .collect();
    assert_eq!(
        bounds,
        END_TO_END.iter().map(|d| d.bound).collect::<Vec<_>>()
    );
    assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25));

    let code: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.label().to_string()))
        .collect();
    assert_eq!(declared(&manifest, "per_layer"), code);

    let workloads: Vec<&str> = manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let mut seen = BTreeSet::new();
    for name in END_TO_END
        .iter()
        .map(|d| d.name)
        .chain(PER_LAYER.iter().map(|(n, _, _)| *n))
        .chain(WORKLOADS)
    {
        assert!(well_formed(name), "malformed name {name:?}");
        assert!(seen.insert(name), "name {name:?} used twice");
    }
}

#[test]
fn smoke_run_prints_every_declared_name() {
    let out_path = concat!(env!("CARGO_TARGET_TMPDIR"), "/smoke-results.json");
    let started = std::time::Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_tender-benchmark"))
        .args(["run", "--smoke", "--out", out_path])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    println!("smoke run took {:.1} s", started.elapsed().as_secs_f64());

    // Every workload × pass ends with one result object on its own line,
    // and the run's last line is one.
    assert!(stdout.lines().last().is_some_and(|l| l.starts_with('{')));
    let lines: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| parse(l).expect("result line parses"))
        .collect();
    assert_eq!(lines.len(), 2 * WORKLOADS.len());
    let e2e_names: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    let layer_names: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(
            line.get("attempted")
                .and_then(Json::as_f64)
                .expect("attempted")
                >= 1.0
        );
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(&names, if i % 2 == 0 { &e2e_names } else { &layer_names });
        for (name, m) in metrics {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no value"
            );
            assert!(
                m.get("unit").and_then(Json::as_str).is_some(),
                "{name} has no unit"
            );
        }
    }

    // The results file carries the stamp, and n + unit on every end-to-end
    // number.
    let results =
        parse(&std::fs::read_to_string(out_path).expect("results file")).expect("results parse");
    let stamp = results.get("stamp").expect("stamp");
    for key in [
        "git_rev",
        "git_dirty",
        "nproc",
        "threads",
        "gemm_backend",
        "rustc",
        "seed",
        "load_average_start",
        "load_average_end",
        "operation_counts",
    ] {
        assert!(stamp.get(key).is_some(), "stamp lacks {key}");
    }
    let workloads = results
        .get("workloads")
        .and_then(Json::as_obj)
        .expect("workloads");
    let names: Vec<&str> = workloads.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, WORKLOADS);
    for (w, body) in workloads {
        for def in END_TO_END {
            let m = body
                .get("end_to_end")
                .and_then(|e| e.get(def.name))
                .unwrap_or_else(|| panic!("{w} lacks {}", def.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
            assert!(
                m.get("n").and_then(Json::as_f64).expect("n") >= 1.0,
                "{w} {} has no samples",
                def.name
            );
            assert!(
                m.get("value").and_then(Json::as_f64).expect("value") > 0.0,
                "{w} {} is zero",
                def.name
            );
        }
    }
}
