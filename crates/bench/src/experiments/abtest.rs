//! `abtest` — an alternating A/B of two prebuilt perfbench binaries.
//!
//! Absolute timings on a shared host drift between sessions by more than
//! the effects a change claims, so a claim compares a base and a head
//! binary run back to back on one host:
//!
//! * pair `i` runs both binaries on one fresh seed, `seed + i`, the base
//!   first in even pairs and the head first in odd ones, so neither side
//!   always runs on the warmer machine;
//! * each run is `<bin> --workload W --seed S --seconds T`, and the last
//!   line of its standard output is perfbench's result object,
//!   `{"correct": …, "metrics": {"<name>": {"value": …, "unit": …}, …}}`;
//! * the user and steal shares of the host's CPU time, read from
//!   `/proc/stat` before and after each run, show how busy the host was.
//!
//! The artifact (schema [`ABTEST_SCHEMA`]) holds, per end-to-end metric,
//! both sides' medians and quartiles over the pairs, the head/base ratio
//! of the medians and the pairs the head won (by the `better=` of the
//! run's `metric` line, lower when none is printed). perfbench's `report`
//! lines are printed, not gated: they get the same figures, with the
//! pairs in which the head read lower. Every run's seed, order, readings
//! and CPU shares follow. A run that reports `"correct": false`, prints
//! no result object or exits non-zero stops the A/B, and nothing is
//! written.

use crate::report::{median, percentile, sorted, Artifact};
use graft_core::json::escape;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Schema identifier embedded in the JSON artifact; bump on layout change.
pub const ABTEST_SCHEMA: &str = "graft-bench/abtest/v1";

/// What `experiments abtest` compares.
#[derive(Clone, Debug, PartialEq)]
pub struct AbtestOptions {
    /// The perfbench binary of the base commit.
    pub base_bin: PathBuf,
    /// The perfbench binary of the change.
    pub head_bin: PathBuf,
    /// The perfbench workload, e.g. `serve-kkt`.
    pub workload: String,
    /// Alternating pairs of runs.
    pub pairs: usize,
    /// Each run's `--seconds`.
    pub seconds: u64,
    /// The first pair's seed; pair `i` runs `seed + i`.
    pub seed: u64,
    /// The artifact's path.
    pub out: PathBuf,
}

impl AbtestOptions {
    /// Parses `--base-bin P --head-bin P --workload W --out F [--pairs N]
    /// [--seconds S] [--seed N]` (defaults: 10 pairs of 30 s from seed 1).
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let (mut base, mut head, mut workload, mut out) = (None, None, None, None);
        let (mut pairs, mut seconds, mut seed) = (10, 30, 1);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--base-bin" => base = Some(PathBuf::from(value)),
                "--head-bin" => head = Some(PathBuf::from(value)),
                "--workload" => workload = Some(value.clone()),
                "--out" => out = Some(PathBuf::from(value)),
                "--pairs" => pairs = value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?,
                "--seconds" => seconds = value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?,
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        fn required<T>(v: Option<T>, flag: &str) -> Result<T, String> {
            v.ok_or_else(|| format!("{flag} is required"))
        }
        Ok(Self {
            base_bin: required(base, "--base-bin")?,
            head_bin: required(head, "--head-bin")?,
            workload: required(workload, "--workload")?,
            pairs,
            seconds,
            seed,
            out: required(out, "--out")?,
        })
    }
}

/// A JSON value: as much of JSON as perfbench's result object and this
/// module's artifact use.
#[derive(Debug, PartialEq)]
enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut s = text;
        let v = Self::value(&mut s)?;
        if s.trim().is_empty() {
            Ok(v)
        } else {
            Err(format!("trailing text `{s}`"))
        }
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn value(s: &mut &str) -> Result<Json, String> {
        *s = s.trim_start();
        if let Some(rest) = s.strip_prefix('{') {
            *s = rest;
            let mut fields = Vec::new();
            Self::items(s, '}', |s| {
                let key = Self::string(s)?;
                *s = s.trim_start().strip_prefix(':').ok_or("expected `:`")?;
                fields.push((key, Self::value(s)?));
                Ok(())
            })?;
            return Ok(Json::Obj(fields));
        }
        if let Some(rest) = s.strip_prefix('[') {
            *s = rest;
            let mut items = Vec::new();
            Self::items(s, ']', |s| {
                items.push(Self::value(s)?);
                Ok(())
            })?;
            return Ok(Json::Arr(items));
        }
        if s.starts_with('"') {
            return Self::string(s).map(Json::Str);
        }
        let end = s
            .find(|c: char| matches!(c, ',' | '}' | ']') || c.is_whitespace())
            .unwrap_or(s.len());
        let (token, rest) = s.split_at(end);
        *s = rest;
        match token {
            "true" => Ok(Json::Bool(true)),
            "false" => Ok(Json::Bool(false)),
            "null" => Ok(Json::Null),
            _ => token
                .parse()
                .map(Json::Num)
                .map_err(|_| format!("bad value `{token}`")),
        }
    }

    /// Comma-separated items up to `close`, after the opening bracket.
    fn items(
        s: &mut &str,
        close: char,
        mut item: impl FnMut(&mut &str) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut first = true;
        loop {
            *s = s.trim_start();
            if let Some(rest) = s.strip_prefix(close) {
                *s = rest;
                return Ok(());
            }
            if !first {
                *s = s
                    .strip_prefix(',')
                    .ok_or(format!("expected `,` or `{close}`"))?;
                *s = s.trim_start();
            }
            first = false;
            item(s)?;
        }
    }

    fn string(s: &mut &str) -> Result<String, String> {
        let body = s.strip_prefix('"').ok_or("expected a string")?;
        let mut out = String::new();
        let mut chars = body.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    *s = &body[i + 1..];
                    return Ok(out);
                }
                '\\' => match chars.next().ok_or("unterminated string")?.1 {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    other => out.push(other),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    }
}

/// One end-to-end metric of one run.
#[derive(Debug, PartialEq)]
struct Metric {
    name: String,
    value: f64,
    unit: String,
    lower_is_better: bool,
}

/// What one run printed.
#[derive(Debug, PartialEq)]
struct Output {
    metrics: Vec<Metric>,
    /// The `report` lines: name and first value.
    reports: Vec<(String, f64)>,
}

/// Reads a run's standard output: the result object on its last line,
/// the `better=` of each `metric` line and the `report` lines.
fn parse_output(stdout: &str) -> Result<Output, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    let result = Json::parse(last).map_err(|e| format!("last line is not a result object: {e}"))?;
    match result.get("correct") {
        Some(Json::Bool(true)) => {}
        Some(Json::Bool(false)) => return Err("the run reports \"correct\": false".to_string()),
        _ => return Err("the result object has no `correct`".to_string()),
    }
    let Some(Json::Obj(fields)) = result.get("metrics") else {
        return Err("the result object has no `metrics`".to_string());
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| match (m.get("value"), m.get("unit")) {
            (Some(&Json::Num(value)), Some(Json::Str(unit))) => Ok(Metric {
                name: name.clone(),
                value,
                unit: unit.clone(),
                lower_is_better: better_of(stdout, name) != Some("higher"),
            }),
            _ => Err(format!(
                "metric `{name}` has no number `value` and string `unit`"
            )),
        })
        .collect::<Result<_, _>>()?;
    let reports = stdout.lines().filter_map(report_value).collect();
    Ok(Output { metrics, reports })
}

/// The `better=` of `name`'s `metric <name> = …` line, if printed.
fn better_of<'a>(stdout: &'a str, name: &str) -> Option<&'a str> {
    stdout
        .lines()
        .filter_map(|l| {
            l.strip_prefix("metric ")?
                .strip_prefix(name)?
                .strip_prefix(" = ")
        })
        .flat_map(str::split_whitespace)
        .find_map(|t| t.strip_prefix("better="))
}

/// `report <name> <key>=<value> …` or `report <name>=<value> …`: the
/// name and the first value.
fn report_value(line: &str) -> Option<(String, f64)> {
    let mut tokens = line.strip_prefix("report ")?.split_whitespace();
    let first = tokens.next()?;
    let (name, value) = match first.split_once('=') {
        Some(pair) => pair,
        None => (first, tokens.next()?.split_once('=')?.1),
    };
    Some((name.to_string(), value.parse().ok()?))
}

/// The host's aggregate CPU times from `/proc/stat`: user + nice, steal
/// and the total of user, nice, system, idle, iowait, irq, softirq and
/// steal (guest time is already inside user).
fn cpu_times() -> Option<[u64; 3]> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    let &[user, nice, _, _, _, _, _, steal] = fields.as_slice() else {
        return None;
    };
    Some([user + nice, steal, fields.iter().sum()])
}

/// The user and steal shares of the CPU time between two readings.
fn cpu_shares(before: Option<[u64; 3]>, after: Option<[u64; 3]>) -> Option<[f64; 2]> {
    let (b, a) = (before?, after?);
    let total = a[2].checked_sub(b[2]).filter(|&t| t > 0)? as f64;
    Some([
        a[0].saturating_sub(b[0]) as f64 / total,
        a[1].saturating_sub(b[1]) as f64 / total,
    ])
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Side {
    Base,
    Head,
}

impl Side {
    fn name(self) -> &'static str {
        match self {
            Side::Base => "base",
            Side::Head => "head",
        }
    }
}

/// One run of one binary.
struct Run {
    seed: u64,
    side: Side,
    /// 1 or 2: the run's place in its pair.
    order: usize,
    output: Output,
    /// User and steal shares of the host's CPU time during the run.
    cpu: Option<[f64; 2]>,
}

fn run_once(opts: &AbtestOptions, side: Side, seed: u64) -> io::Result<Output> {
    let bin = match side {
        Side::Base => &opts.base_bin,
        Side::Head => &opts.head_bin,
    };
    let out = Command::new(bin)
        .args(["--workload", &opts.workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", bin.display())))?;
    let fail = |e: String| io::Error::other(format!("{} seed {seed}: {e}", bin.display()));
    let output = parse_output(&String::from_utf8_lossy(&out.stdout)).map_err(fail)?;
    if !out.status.success() {
        return Err(fail(format!("exited with {}", out.status)));
    }
    Ok(output)
}

/// A JSON number, `null` when not finite.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"median": …, "q1": …, "q3": …}` of `values`.
fn quartiles(values: Vec<f64>) -> (f64, String) {
    let v = sorted(values);
    let m = median(&v);
    let text = format!(
        "{{\"median\": {}, \"q1\": {}, \"q3\": {}}}",
        num(m),
        num(percentile(&v, 0.25)),
        num(percentile(&v, 0.75))
    );
    (m, text)
}

/// One compared figure over the pairs: its name, `extra` fields (already
/// JSON), both sides' readings pair by pair, and whether the head wins a
/// pair by reading lower (`Some(true)`), higher (`Some(false)`), or the
/// figure has no winner (`None`: counted as `pairs_head_lower`).
fn compare(name: &str, extra: &str, base: Vec<f64>, head: Vec<f64>, lower: Option<bool>) -> String {
    let pairs = base.len();
    let won = base
        .iter()
        .zip(&head)
        .filter(|(b, h)| if lower == Some(false) { h > b } else { h < b })
        .count();
    let (bm, b) = quartiles(base);
    let (hm, h) = quartiles(head);
    let ratio = if bm == 0.0 { f64::NAN } else { hm / bm };
    let won_key = if lower.is_some() {
        "pairs_won"
    } else {
        "pairs_head_lower"
    };
    println!("  {name}: base {bm:.4}, head {hm:.4}, ratio {ratio:.3}, {won_key} {won}/{pairs}");
    format!(
        "\n    {{\"name\": \"{}\"{extra}, \"base\": {b}, \"head\": {h}, \"ratio\": {}, \"{won_key}\": {won}, \"pairs\": {pairs}}}",
        escape(name),
        num(ratio)
    )
}

/// Runs the A/B and writes its artifact to `opts.out`; writes nothing
/// unless every run was correct.
pub fn abtest(opts: &AbtestOptions) -> io::Result<()> {
    if opts.pairs == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "abtest needs at least one pair",
        ));
    }
    let mut runs: Vec<Run> = Vec::with_capacity(2 * opts.pairs);
    for pair in 0..opts.pairs {
        let seed = opts.seed + pair as u64;
        let order = if pair % 2 == 0 {
            [Side::Base, Side::Head]
        } else {
            [Side::Head, Side::Base]
        };
        for (i, side) in order.into_iter().enumerate() {
            let before = cpu_times();
            let output = run_once(opts, side, seed)?;
            let cpu = cpu_shares(before, cpu_times());
            let values: Vec<String> = output
                .metrics
                .iter()
                .map(|m| format!("{}={}", m.name, m.value))
                .collect();
            println!(
                "abtest pair {}/{} seed {seed} {}: {}",
                pair + 1,
                opts.pairs,
                side.name(),
                values.join(" ")
            );
            runs.push(Run {
                seed,
                side,
                order: i + 1,
                output,
                cpu,
            });
        }
    }
    // Readings of one figure, in pair order, per side.
    let side_values = |side: Side, pick: &dyn Fn(&Output) -> Option<f64>| -> Option<Vec<f64>> {
        runs.iter()
            .filter(|r| r.side == side)
            .map(|r| pick(&r.output))
            .collect()
    };
    let first = &runs[0].output;
    let mut metrics = Vec::new();
    for m in &first.metrics {
        let pick = |o: &Output| o.metrics.iter().find(|x| x.name == m.name).map(|x| x.value);
        let (Some(base), Some(head)) = (
            side_values(Side::Base, &pick),
            side_values(Side::Head, &pick),
        ) else {
            return Err(io::Error::other(format!(
                "metric `{}` is missing from a run",
                m.name
            )));
        };
        let better = if m.lower_is_better { "lower" } else { "higher" };
        let extra = format!(
            ", \"unit\": \"{}\", \"better\": \"{better}\"",
            escape(&m.unit)
        );
        metrics.push(compare(
            &m.name,
            &extra,
            base,
            head,
            Some(m.lower_is_better),
        ));
    }
    // A report line missing from any run is left out.
    let mut reports = Vec::new();
    for (name, _) in &first.reports {
        let pick = |o: &Output| o.reports.iter().find(|(n, _)| n == name).map(|r| r.1);
        if let (Some(base), Some(head)) = (
            side_values(Side::Base, &pick),
            side_values(Side::Head, &pick),
        ) {
            reports.push(compare(name, "", base, head, None));
        }
    }
    let mut run_lines = String::new();
    for r in &runs {
        let values = |pairs: Vec<(&str, f64)>| {
            let fields: Vec<String> = pairs
                .into_iter()
                .map(|(k, v)| format!("\"{}\": {}", escape(k), num(v)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        };
        let [user, steal] = r
            .cpu
            .map_or(["null".to_string(), "null".to_string()], |c| c.map(num));
        let _ = write!(
            run_lines,
            "{}\n    {{\"seed\": {}, \"side\": \"{}\", \"order\": {}, \"user_frac\": {user}, \"steal_frac\": {steal}, \"metrics\": {}, \"reports\": {}}}",
            if run_lines.is_empty() { "" } else { "," },
            r.seed,
            r.side.name(),
            r.order,
            values(r.output.metrics.iter().map(|m| (m.name.as_str(), m.value)).collect()),
            values(r.output.reports.iter().map(|(n, v)| (n.as_str(), *v)).collect()),
        );
    }
    let seeds: Vec<String> = (0..opts.pairs as u64)
        .map(|i| (opts.seed + i).to_string())
        .collect();
    let mut artifact = Artifact::new(ABTEST_SCHEMA, None);
    artifact.field("workload", format_args!("\"{}\"", escape(&opts.workload)));
    artifact.field("seconds", opts.seconds);
    artifact.field(
        "base_bin",
        format_args!("\"{}\"", escape(&opts.base_bin.display().to_string())),
    );
    artifact.field(
        "head_bin",
        format_args!("\"{}\"", escape(&opts.head_bin.display().to_string())),
    );
    artifact.field("seeds", format_args!("[{}]", seeds.join(", ")));
    artifact.field("metrics", format_args!("[{}\n  ]", metrics.join(",")));
    artifact.field("reports", format_args!("[{}\n  ]", reports.join(",")));
    artifact.field("runs", format_args!("[{run_lines}\n  ]"));
    if let Some(dir) = opts.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    artifact.finish(&opts.out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::fs::PermissionsExt;
    use std::path::Path;

    /// perfbench's output shape: timing lines, `metric` and `report`
    /// lines, then the result object.
    fn perfbench_output(solve_ms: f64, update_ms: f64, correct: bool) -> String {
        format!(
            "perfbench workload=serve-kkt seed=1 seconds=1 trace=0\n\
             solve_ms median={solve_ms} q1=0.1 q3=0.3 n=10\n\
             report update_p50_ms median={update_ms} q1=0.1 q3=0.2 n=8\n\
             report requests_per_s=123.5 replies=18 window_s=1.0\n\
             metric solve_p50_ms = {solve_ms} ms n=10 better=lower\n\
             metric peak_rss_mib = 100.0000 MiB n=1 better=lower\n\
             {{\"correct\": {correct}, \"attempted\": 18, \"failed\": 0, \"metrics\": \
             {{\"solve_p50_ms\": {{\"value\": {solve_ms}, \"unit\": \"ms\"}}, \
             \"peak_rss_mib\": {{\"value\": 100, \"unit\": \"MiB\"}}}}}}\n"
        )
    }

    #[test]
    fn parses_the_result_object_and_the_printed_lines() {
        let out = parse_output(&perfbench_output(0.25, 0.125, true)).unwrap();
        assert_eq!(
            out.metrics,
            [
                Metric {
                    name: "solve_p50_ms".into(),
                    value: 0.25,
                    unit: "ms".into(),
                    lower_is_better: true
                },
                Metric {
                    name: "peak_rss_mib".into(),
                    value: 100.0,
                    unit: "MiB".into(),
                    lower_is_better: true
                },
            ]
        );
        assert_eq!(
            out.reports,
            [
                ("update_p50_ms".to_string(), 0.125),
                ("requests_per_s".to_string(), 123.5)
            ]
        );
        let err = parse_output(&perfbench_output(0.25, 0.125, false)).unwrap_err();
        assert!(err.contains("\"correct\": false"), "{err}");
        assert!(parse_output("solve_ms median=1\n").is_err());
        assert_eq!(
            better_of("metric x = 1 u n=1 better=higher\n", "x"),
            Some("higher")
        );
        assert_eq!(better_of("metric xy = 1 u n=1 better=higher\n", "x"), None);
    }

    #[test]
    fn cpu_shares_are_deltas_over_the_total() {
        assert_eq!(
            cpu_shares(Some([10, 5, 100]), Some([40, 15, 200])),
            Some([0.3, 0.1])
        );
        assert_eq!(cpu_shares(Some([0, 0, 100]), Some([0, 0, 100])), None);
        assert_eq!(cpu_shares(None, Some([0, 0, 100])), None);
    }

    #[test]
    fn options_parse_with_defaults() {
        let args: Vec<String> =
            "--base-bin a --head-bin b --workload serve-kkt --out x.json --pairs 6"
                .split(' ')
                .map(String::from)
                .collect();
        let opts = AbtestOptions::parse(&args).unwrap();
        assert_eq!((opts.pairs, opts.seconds, opts.seed), (6, 30, 1));
        assert_eq!(opts.base_bin, PathBuf::from("a"));
        assert!(AbtestOptions::parse(&args[..6])
            .unwrap_err()
            .contains("--out"));
        let zero: Vec<String> = [&args[..], &["--pairs".into(), "0".into()]].concat();
        assert!(AbtestOptions::parse(&zero).is_err());
    }

    /// Writes an executable stub that logs `<tag> <args>` to `log` and
    /// prints `stdout`.
    fn stub(dir: &Path, tag: &str, log: &Path, stdout: &str) -> PathBuf {
        let path = dir.join(tag);
        let body = format!(
            "#!/bin/sh\necho \"{tag} $*\" >> '{}'\ncat <<'EOF'\n{stdout}EOF\n",
            log.display()
        );
        std::fs::write(&path, body).unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        path
    }

    #[test]
    fn alternates_two_stub_binaries_and_writes_nothing_for_a_wrong_run() {
        let dir = std::env::temp_dir().join(format!("graft_abtest_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("calls.log");
        let base = stub(&dir, "base", &log, &perfbench_output(0.4, 0.1, true));
        let head = stub(&dir, "head", &log, &perfbench_output(0.2, 0.2, true));
        let wrong = stub(&dir, "wrong", &log, &perfbench_output(0.1, 0.1, false));
        let out = dir.join("out").join("ab.json");
        let opts = AbtestOptions {
            base_bin: base,
            head_bin: head,
            workload: "serve-kkt".into(),
            pairs: 3,
            seconds: 1,
            seed: 7,
            out: out.clone(),
        };
        abtest(&opts).unwrap();
        let calls = std::fs::read_to_string(&log).unwrap();
        let expected: Vec<String> = [
            ("base", 7),
            ("head", 7),
            ("head", 8),
            ("base", 8),
            ("base", 9),
            ("head", 9),
        ]
        .iter()
        .map(|(tag, seed)| format!("{tag} --workload serve-kkt --seed {seed} --seconds 1"))
        .collect();
        assert_eq!(calls.lines().collect::<Vec<_>>(), expected);

        let text = std::fs::read_to_string(&out).unwrap();
        let a = Json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert_eq!(a.get("schema"), Some(&Json::Str(ABTEST_SCHEMA.into())));
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        assert_eq!(a.get("seeds"), Some(&nums(&[7.0, 8.0, 9.0])));
        let Some(Json::Arr(metrics)) = a.get("metrics") else {
            panic!("{text}")
        };
        let solve = &metrics[0];
        assert_eq!(solve.get("name"), Some(&Json::Str("solve_p50_ms".into())));
        assert_eq!(solve.get("ratio"), Some(&Json::Num(0.5)));
        assert_eq!(solve.get("pairs_won"), Some(&Json::Num(3.0)));
        assert_eq!(
            solve.get("base").and_then(|b| b.get("q3")),
            Some(&Json::Num(0.4))
        );
        assert_eq!(
            metrics[1].get("pairs_won"),
            Some(&Json::Num(0.0)),
            "a tie is no win"
        );
        let Some(Json::Arr(reports)) = a.get("reports") else {
            panic!("{text}")
        };
        assert_eq!(reports[0].get("ratio"), Some(&Json::Num(2.0)));
        assert_eq!(reports[0].get("pairs_head_lower"), Some(&Json::Num(0.0)));
        let Some(Json::Arr(runs)) = a.get("runs") else {
            panic!("{text}")
        };
        assert_eq!(runs.len(), 6);
        assert_eq!(runs[2].get("side"), Some(&Json::Str("head".into())));
        assert_eq!(runs[2].get("order"), Some(&Json::Num(1.0)));
        assert!(runs[0].get("steal_frac").is_some());

        let wrong_out = dir.join("wrong.json");
        let opts = AbtestOptions {
            head_bin: wrong,
            out: wrong_out.clone(),
            ..opts
        };
        let err = abtest(&opts).unwrap_err();
        assert!(err.to_string().contains("\"correct\": false"), "{err}");
        assert!(
            !wrong_out.exists(),
            "an A/B with a wrong run wrote its artifact"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
