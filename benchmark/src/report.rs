//! The result line, the host stamp and the human-readable summary.

use std::fmt::Write as _;
use std::path::Path;

use loopspec::isa::snap::fnv1a_update;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed, were refused, or mismatched a digest.
    pub failed: u64,
    /// Metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed for people only (deterministic or zero-valued
    /// ones the result line does not carry).
    pub extra: Vec<Metric>,
    /// Stamp fields (already JSON-encoded values).
    pub stamp: Vec<(&'static str, String)>,
    /// Every failure, in words.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; a failure is recorded with `why`.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }

    /// Records one failed operation that was already counted as
    /// attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    /// Failed operations as a percentage of those attempted.
    pub fn fail_pct(&self) -> f64 {
        crate::stats::pct(self.failed as f64, self.attempted.max(1) as f64)
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which no metric should produce)
/// become `null` so the line stays valid JSON.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The final result line.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(x.name),
                json_num(x.value),
                json_str(x.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// The stamp line: host, source and run parameters.
pub fn stamp_line(outcome: &Outcome) -> String {
    let fields: Vec<String> = outcome
        .stamp
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"stamp\": {{{}}}}}", fields.join(", "))
}

/// Aligned `name value unit` lines for every metric.
pub fn summary(outcome: &Outcome) -> String {
    let mut out = String::new();
    for x in outcome.metrics.iter().chain(&outcome.extra) {
        let _ = writeln!(out, "  {:<24} {:>16.6} {}", x.name, x.value, x.unit);
    }
    out
}

/// Logical CPUs the benchmark may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host CPU model from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit being measured: `HEAD` of the git checkout at `root`, or,
/// in an exported tree, `tree-<digest>` over the sources.
pub fn commit_in(root: &Path) -> String {
    git_head(&root.join(".git")).unwrap_or_else(|| format!("tree-{:016x}", source_digest(root)))
}

fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| {
            l.strip_suffix(reference)?
                .strip_suffix(' ')
                .map(str::to_string)
        })
}

/// FNV-1a over the paths and contents of the workspace sources, in
/// sorted order.
fn source_digest(root: &Path) -> u64 {
    fn walk(path: &Path, files: &mut Vec<std::path::PathBuf>) {
        if path.is_dir() {
            if let Ok(dir) = std::fs::read_dir(path) {
                for e in dir.flatten() {
                    walk(&e.path(), files);
                }
            }
        } else if path.is_file() {
            files.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for dir in ["Cargo.toml", "Cargo.lock", "crates", "src", "benchmark/src"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h = loopspec::isa::snap::FNV1A_INIT;
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f);
        h = fnv1a_update(h, rel.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            h = fnv1a_update(h, &bytes);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.check(Err("boom".into()));
        o.metrics.push(m("wall_s", 1.25, "s"));
        let line = result_line(&o);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(o.fail_pct(), 50.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
