//! Experiment output: aligned stdout tables plus CSV files, the summary
//! statistics the gates use, and the `BENCH_*.json` artifact envelope.

use crate::sysinfo::SystemInfo;
use graft_core::json::escape;
use graft_gen::Scale;
use std::fmt::{Display, Write as _};
use std::io::{self, Write};
use std::path::Path;

/// One experiment's output table.
#[derive(Clone, Debug)]
pub struct Report {
    /// File/figure identifier, e.g. `fig1_edges`.
    pub name: String,
    /// Human title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table (paper-expectation text).
    pub notes: Vec<String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(name: impl Into<String>, title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            name: name.into(),
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in {}",
            self.name
        );
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Prints the aligned table to stdout.
    pub fn print(&self) {
        println!("\n== {} — {} ==", self.name, self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
        for n in &self.notes {
            println!("  note: {n}");
        }
    }

    /// Writes the table as `<dir>/<name>.csv`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "{}", escape_row(&self.headers))?;
        for row in &self.rows {
            writeln!(f, "{}", escape_row(row))?;
        }
        Ok(path)
    }

    /// Prints and writes in one step; returns the CSV path.
    pub fn emit(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        self.print();
        let p = self.write_csv(dir)?;
        println!("  → {}", p.display());
        Ok(p)
    }
}

fn escape_cell(c: &str) -> String {
    if c.contains(',') || c.contains('"') || c.contains('\n') {
        format!("\"{}\"", c.replace('"', "\"\""))
    } else {
        c.to_string()
    }
}

fn escape_row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| escape_cell(c))
        .collect::<Vec<_>>()
        .join(",")
}

/// Formats a `f64` with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a `f64` with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a duration in adaptive units.
pub fn dur(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// Sorts a sample of finite timings ascending.
pub(crate) fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Median of a sorted sample (mean of the two middle values for even n);
/// 0 for an empty sample.
pub(crate) fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted sample, `q` in (0, 1]: the
/// smallest value at or above a `q` share of the sample. 0 for an empty
/// sample.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Seconds with microsecond resolution — enough for tiny-scale solves,
/// and locale-proof (always a plain `1.234567` literal).
pub(crate) fn secs(v: f64) -> String {
    format!("{v:.6}")
}

/// Best-effort short commit hash; "unknown" outside a git checkout.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A schema-versioned `BENCH_*.json` artifact. Each one opens with the
/// same `schema`/`git_sha`/`scale`/`system` header and closes with its
/// gate's `violations`/`pass` verdict; an experiment adds its own
/// top-level fields in between.
pub(crate) struct Artifact {
    json: String,
}

impl Artifact {
    /// Opens an artifact of `schema`, measured at `scale` on this host.
    pub(crate) fn new(schema: &str, scale: Scale) -> Self {
        let sys = SystemInfo::collect();
        let mut a = Self {
            json: String::from("{\n"),
        };
        a.field("schema", format_args!("\"{}\"", escape(schema)));
        a.field("git_sha", format_args!("\"{}\"", escape(&git_sha())));
        a.field("scale", format_args!("\"{scale:?}\""));
        a.field(
            "system",
            format_args!(
                "{{\"cpu_model\": \"{}\", \"logical_cpus\": {}, \"physical_cores\": {}, \
                 \"memory_gib\": {:.1}, \"os\": \"{}\"}}",
                escape(&sys.cpu_model),
                sys.logical_cpus,
                sys.physical_cores,
                sys.memory_gib,
                escape(&sys.os)
            ),
        );
        a
    }

    /// Adds the top-level field `key`; `value` is already JSON text.
    pub(crate) fn field(&mut self, key: &str, value: impl Display) {
        let _ = writeln!(self.json, "  \"{key}\": {value},");
    }

    /// Closes the artifact with the verdict, writes it to `dir/file`, and
    /// fails iff `violations` is non-empty (`gate` names the experiment
    /// in that error).
    pub(crate) fn write(
        mut self,
        dir: &Path,
        file: &str,
        gate: &str,
        violations: &[String],
    ) -> io::Result<()> {
        let quoted: Vec<String> = violations
            .iter()
            .map(|v| format!("\"{}\"", escape(v)))
            .collect();
        let _ = writeln!(self.json, "  \"violations\": [{}],", quoted.join(", "));
        let _ = writeln!(self.json, "  \"pass\": {}\n}}", violations.is_empty());
        std::fs::create_dir_all(dir)?;
        let path = dir.join(file);
        std::fs::write(&path, &self.json)?;
        println!("  → {}", path.display());
        if violations.is_empty() {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "{gate}: {} relative-invariant violation(s): {}",
                violations.len(),
                violations.join("; ")
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank_percentiles() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.9), 3.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.9), 9.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.50), 50.0);
        assert_eq!(percentile(&hundred, 0.95), 95.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(sorted(vec![3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn report_roundtrip() {
        let mut r = Report::new("t", "test", &["a", "b"]);
        r.row(vec!["1".into(), "x,y".into()]);
        r.note("hello");
        let dir = std::env::temp_dir().join("graft_bench_report_test");
        let p = r.write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(p).unwrap();
        assert!(content.contains("a,b"));
        assert!(content.contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut r = Report::new("t", "test", &["a", "b"]);
        r.row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f3(0.1), "0.100");
        assert_eq!(dur(std::time::Duration::from_millis(1500)), "1.50s");
        assert_eq!(dur(std::time::Duration::from_micros(1500)), "1.50ms");
        assert_eq!(dur(std::time::Duration::from_nanos(500_000)), "500µs");
    }
}
