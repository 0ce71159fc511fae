//! The shared `BENCH_*.json` emitter.
//!
//! A [`BenchReport`] is a schema-versioned (`peace-bench-v1`),
//! insertion-ordered set of fields with a stable header (`schema`,
//! `bench`, `when_ms`), printed to stdout and written to
//! `BENCH_<tag>.json` in one call. `peace-loadgen` writes
//! `BENCH_load.json` through it, embedded `peace-telemetry-v1` snapshots
//! included.

use std::path::{Path, PathBuf};

use crate::json::{escape, ObjectWriter};

/// Bench artifact schema identifier.
pub const BENCH_SCHEMA: &str = "peace-bench-v1";

/// A benchmark result under construction. Fields keep insertion order
/// (benchmarks read top-to-bottom as a narrative); the schema header is
/// prepended at render time.
#[derive(Debug)]
pub struct BenchReport {
    name: String,
    fields: Vec<(String, String)>,
}

impl BenchReport {
    /// Starts a report for the benchmark called `name`.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            fields: Vec::new(),
        }
    }

    fn push(&mut self, key: &str, raw: String) -> &mut Self {
        self.fields.push((key.to_owned(), raw));
        self
    }

    /// Adds an unsigned integer field.
    pub fn uint(&mut self, key: &str, v: u64) -> &mut Self {
        self.push(key, v.to_string())
    }

    /// Adds a float field rendered with `decimals` fraction digits
    /// (fixed-width so artifacts diff cleanly).
    pub fn float(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        let r = if v.is_finite() {
            format!("{v:.decimals$}")
        } else {
            "0".to_owned()
        };
        self.push(key, r)
    }

    /// Adds a string field.
    pub fn text(&mut self, key: &str, v: &str) -> &mut Self {
        self.push(key, format!("\"{}\"", escape(v)))
    }

    /// Embeds pre-rendered JSON (e.g. a [`crate::Snapshot::to_json`]
    /// document) under `key`.
    pub fn json(&mut self, key: &str, raw: &str) -> &mut Self {
        self.push(key, raw.to_owned())
    }

    /// Renders the artifact: `schema`, `bench`, `when_ms`, then every
    /// field in insertion order.
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.string("schema", BENCH_SCHEMA)
            .string("bench", &self.name)
            .uint("when_ms", wall_ms());
        for (k, v) in &self.fields {
            w.raw(k, v);
        }
        w.finish()
    }

    /// Prints the artifact to stdout and writes it to `BENCH_<tag>.json`
    /// in `$BENCH_DIR` (or the working directory), returning the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the artifact write.
    pub fn emit(&self, tag: &str) -> std::io::Result<PathBuf> {
        let rendered = self.to_json();
        println!("{rendered}");
        let dir = std::env::var_os("BENCH_DIR").map_or_else(|| PathBuf::from("."), PathBuf::from);
        let path = dir.join(format!("BENCH_{tag}.json"));
        write_pretty(&path, &rendered)?;
        Ok(path)
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn wall_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// Writes the artifact with one top-level field per line (the historical
/// `BENCH_*.json` layout, kept diff-friendly for the checked-in copies).
fn write_pretty(path: &Path, compact: &str) -> std::io::Result<()> {
    // Reflow only the top level: split on `,"` at depth 1.
    let mut out = String::with_capacity(compact.len() + 64);
    let mut depth = 0usize;
    let mut in_str = false;
    let mut prev_escape = false;
    for c in compact.chars() {
        match c {
            '"' if !prev_escape => in_str = !in_str,
            '{' | '[' if !in_str => {
                depth += 1;
                if depth == 1 {
                    out.push_str("{\n  ");
                    prev_escape = false;
                    continue;
                }
            }
            '}' | ']' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    out.push_str("\n}");
                    prev_escape = false;
                    continue;
                }
            }
            ',' if !in_str && depth == 1 => {
                out.push_str(",\n  ");
                prev_escape = false;
                continue;
            }
            _ => {}
        }
        prev_escape = c == '\\' && !prev_escape;
        out.push(c);
    }
    out.push('\n');
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape() {
        let mut r = BenchReport::new("demo");
        r.uint("n", 3).float("rate", 1.5, 2).text("note", "ok");
        let j = r.to_json();
        assert!(j.starts_with("{\"schema\":\"peace-bench-v1\",\"bench\":\"demo\",\"when_ms\":"));
        assert!(j.ends_with("\"n\":3,\"rate\":1.50,\"note\":\"ok\"}"));
    }

    #[test]
    fn pretty_writer_is_valid_layout() {
        let dir = std::env::temp_dir().join("peace-telemetry-test-bench");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_t.json");
        let mut r = BenchReport::new("t");
        r.uint("a", 1).json("nested", "{\"x\":[1,2]}");
        write_pretty(&path, &r.to_json()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // One top-level field per line; nested objects stay inline.
        assert!(text.contains("\n  \"a\":1,\n"));
        assert!(text.contains("\"nested\":{\"x\":[1,2]}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
