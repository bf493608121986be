//! Metrics-report smoke test.
//!
//! Runs the full experiment suite (`all_experiments`, fast mode) with
//! `--metrics-json`, re-parses the report with a *minimal independent JSON
//! parser* (so the hand-rolled emitter in `tender-metrics` is checked
//! against something other than itself), requires every section and key of
//! the in-process `report()` in it, and cross-checks the counters the suite
//! prints to stdout against the JSON values.

use std::collections::HashMap;
use std::process::Command;

use tender_metrics::Value;

/// A minimal JSON value: exactly what the metrics report can contain.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Num(u64),
    Arr(Vec<Json>),
    Obj(HashMap<String, Json>),
}

impl Json {
    fn as_u64(&self) -> u64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("expected object, got {other:?}"),
        }
    }

    fn has(&self, key: &str) -> bool {
        matches!(self, Json::Obj(m) if m.contains_key(key))
    }
}

/// Parses `src` as a JSON document of objects, arrays, strings (keys only),
/// and unsigned integers — everything the metrics report emits.
fn parse_json(src: &str) -> Result<Json, String> {
    let bytes: Vec<char> = src.chars().collect();
    let mut pos = 0;
    let v = parse_value(&bytes, &mut pos)?;
    skip_ws(&bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[char], pos: &mut usize, c: char) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{c}' at {pos}"))
    }
}

fn parse_string(b: &[char], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, '"')?;
    let mut s = String::new();
    while *pos < b.len() {
        let c = b[*pos];
        *pos += 1;
        match c {
            '"' => return Ok(s),
            '\\' => {
                let e = *b.get(*pos).ok_or("truncated escape")?;
                *pos += 1;
                match e {
                    '"' | '\\' | '/' => s.push(e),
                    'n' => s.push('\n'),
                    't' => s.push('\t'),
                    'u' => {
                        let hex: String = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u")?
                            .iter()
                            .collect();
                        *pos += 4;
                        let n = u32::from_str_radix(&hex, 16).map_err(|e| e.to_string())?;
                        s.push(char::from_u32(n).ok_or("bad codepoint")?);
                    }
                    other => return Err(format!("unknown escape \\{other}")),
                }
            }
            c => s.push(c),
        }
    }
    Err("unterminated string".into())
}

fn parse_value(b: &[char], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some('{') => {
            *pos += 1;
            let mut m = HashMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Json::Obj(m));
            }
            loop {
                let k = parse_string(b, pos)?;
                expect(b, pos, ':')?;
                let v = parse_value(b, pos)?;
                m.insert(k, v);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Json::Obj(m));
                    }
                    _ => return Err(format!("expected ',' or '}}' at {pos}")),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut xs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Json::Arr(xs));
            }
            loop {
                xs.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Json::Arr(xs));
                    }
                    _ => return Err(format!("expected ',' or ']' at {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while *pos < b.len() && b[*pos].is_ascii_digit() {
                *pos += 1;
            }
            let s: String = b[start..*pos].iter().collect();
            Ok(Json::Num(s.parse().map_err(|e| format!("{e}"))?))
        }
        other => Err(format!("unexpected {other:?} at {pos}")),
    }
}

/// Requires `got` to have the kind of `expected` and, for objects, every key
/// of it (recursively). The child may hold more — the per-layer timers of
/// layers that ran only there.
fn assert_covers(path: &str, expected: &Value, got: &Json) {
    match (expected, got) {
        (Value::U64(_), Json::Num(_)) => {}
        (Value::Array(_), Json::Arr(xs)) => {
            assert!(xs.iter().all(|x| matches!(x, Json::Num(_))), "{path}");
        }
        (Value::Object(fields), Json::Obj(_)) => {
            for (key, v) in fields {
                assert!(got.has(key), "{path}: missing key {key}");
                assert_covers(&format!("{path}.{key}"), v, got.get(key));
            }
        }
        _ => panic!("{path}: report() holds {expected:?}, the JSON {got:?}"),
    }
}

#[test]
fn metrics_report_parses_and_matches_stdout_counters() {
    let dir = std::env::temp_dir().join(format!("tender-metrics-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.json");

    let out = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .env("TENDER_FAST", "1")
        .env("TENDER_THREADS", "4")
        .arg("--metrics-json")
        .arg(&path)
        .output()
        .expect("spawn all_experiments");
    assert!(
        out.status.success(),
        "all_experiments failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The suite prints the overflow counter to stdout (deterministic line).
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("kernel overflow events:"))
        .expect("overflow line in stdout");
    let stdout_overflow: u64 = line
        .rsplit(':')
        .next()
        .unwrap()
        .trim()
        .parse()
        .expect("numeric overflow count");

    // Re-parse the JSON report with the independent parser.
    let text = std::fs::read_to_string(&path).expect("report written");
    let root = parse_json(&text).unwrap_or_else(|e| panic!("report is not valid JSON: {e}"));
    let sections = tender_metrics::report().sections.into_iter();
    let surface = Value::Object(
        sections
            .map(|s| (s.name.to_string(), Value::Object(s.fields)))
            .collect(),
    );
    assert_covers("report", &surface, &root);

    let kernel = root.get("kernel");
    assert_eq!(
        kernel.get("overflow_events").as_u64(),
        stdout_overflow,
        "JSON overflow counter must match the stdout line"
    );
    assert!(kernel.get("implicit_matmuls").as_u64() > 0);
    assert!(kernel.get("quantized_values").as_u64() > 0);
    let chunks = kernel.get("chunks_fast_path").as_u64() + kernel.get("chunks_checked").as_u64();
    assert!(chunks > 0, "every chunk takes the fast or the checked path");

    let pool = root.get("pool");
    assert_eq!(pool.get("threads").as_u64(), 4, "pool sized by env");

    let model = root.get("model");
    assert!(model.get("forward_passes").as_u64() > 0);

    // The `generate` catalog entry drives the decode engine, so its
    // counters must be live in the same report.
    let engine = root.get("engine");
    assert!(engine.get("prefills").as_u64() > 0);
    assert!(engine.get("decode_steps").as_u64() > 0);
    assert!(engine.get("decode_macs").as_u64() > 0);
    assert!(engine.get("kv_cache_peak_bytes").as_u64() > 0);

    let sim = root.get("sim");
    assert!(sim.get("accel_runs").as_u64() > 0);

    std::fs::remove_dir_all(&dir).ok();
}
