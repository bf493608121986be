//! Structured metrics snapshot and hand-rolled JSON emission.
//!
//! The snapshot itself is built by the metrics table in the crate root; this
//! module is the JSON side only.
//!
//! The workspace is dependency-free, so JSON is written by hand. Keys are
//! static identifiers (no escaping needed beyond the standard string rules,
//! which [`escape`] applies anyway), ordering is fixed, and the output is
//! valid JSON by construction — the bench suite re-parses it with an
//! independent minimal parser to keep this honest.

/// A single exported metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counters, gauges, nanoseconds).
    U64(u64),
    /// Array of unsigned integers (per-thread / per-group / per-tier banks).
    Array(Vec<u64>),
    /// Nested object (timer breakdowns).
    Object(Vec<(String, Value)>),
}

/// One named subsystem in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Subsystem name: the table section's identifier (`pool`, `kernel`, …).
    pub name: &'static str,
    /// Ordered metric fields.
    pub fields: Vec<(String, Value)>,
}

impl Section {
    /// Looks up a top-level `u64` field by name.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.fields.iter().find_map(|(k, v)| match v {
            Value::U64(n) if k == key => Some(*n),
            _ => None,
        })
    }
}

/// A point-in-time snapshot of every metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Ordered subsystem sections.
    pub sections: Vec<Section>,
}

impl Report {
    /// The section named `name`, if present.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        for (si, sec) in self.sections.iter().enumerate() {
            out.push_str(&format!("  \"{}\": {{\n", escape(sec.name)));
            for (fi, (k, v)) in sec.fields.iter().enumerate() {
                out.push_str(&format!("    \"{}\": ", escape(k)));
                write_value(&mut out, v, 4);
                out.push_str(if fi + 1 < sec.fields.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("  }");
            out.push_str(if si + 1 < self.sections.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("}\n");
        out
    }
}

fn write_value(out: &mut String, v: &Value, indent: usize) {
    match v {
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::Array(xs) => {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&x.to_string());
            }
            out.push(']');
        }
        Value::Object(fields) => {
            let pad = " ".repeat(indent + 2);
            out.push_str("{\n");
            for (i, (k, fv)) in fields.iter().enumerate() {
                out.push_str(&format!("{pad}\"{}\": ", escape(k)));
                write_value(out, fv, indent + 2);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            out.push_str(&" ".repeat(indent));
            out.push('}');
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel;

    #[test]
    fn section_lookup_and_counters_round_trip() {
        kernel::OVERFLOW_EVENTS.reset();
        kernel::OVERFLOW_EVENTS.add(42);
        let r = crate::report();
        let k = r.section("kernel").unwrap();
        assert_eq!(k.get_u64("overflow_events"), Some(42));
        assert!(r.section("nope").is_none());
        kernel::OVERFLOW_EVENTS.reset();
    }

    #[test]
    fn json_is_structurally_balanced() {
        let json = crate::report().to_json();
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"overflow_events\""));
        assert!(json.contains("\"thread_busy_ns\""));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("\n"), "\\u000a");
    }
}
