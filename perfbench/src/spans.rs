//! In-memory spans recorded around the benchmark's own calls into each
//! layer. A span holds its name, start, end, parent span and request id;
//! the set is written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.engine`.
    pub name: &'static str,
    /// Request the span belongs to (0: set-up and probes).
    pub req: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The layer a span's self time is charged to.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next() {
        Some("gen") => "gen",
        Some("core") if name == "core.init" => "core.init",
        Some("core") => "core.engine",
        Some("dyn") => "dyn",
        _ => "svc",
    }
}

/// A span recorder; when off, it runs the calls and records nothing.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Spans {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the request id of the spans that follow.
    pub fn request(&mut self, req: u64) {
        self.req = req;
    }

    /// Opens a span that later spans nest in, until [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            req: self.req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Every recorded span.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of the spans called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Self time (duration minus the time its child spans cover) summed
    /// per layer, over the spans of requests `req > 0`, in microseconds.
    pub fn self_us_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.us();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_us) {
            if s.req > 0 {
                *out.entry(layer_of(s.name)).or_insert(0.0) += s.us() - c;
            }
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true);
        spans.request(1);
        spans.enter("request");
        spans.leaf("core.engine", || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        spans.leaf("svc.parse", || ());
        spans.exit();
        let all = spans.all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(0));
        let by_layer = spans.self_us_by_layer();
        let total: f64 = by_layer.values().sum();
        assert!((total - all[0].us()).abs() < 1e-6);
        assert!(by_layer["core.engine"] >= 4000.0);
        assert!(by_layer["svc"] < by_layer["core.engine"]);
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut spans = Spans::new(false);
        spans.enter("request");
        assert_eq!(spans.leaf("svc.parse", || 7), 7);
        spans.exit();
        assert!(spans.all().is_empty());
    }

    #[test]
    fn layers_by_name() {
        assert_eq!(layer_of("core.init"), "core.init");
        assert_eq!(layer_of("core.engine"), "core.engine");
        assert_eq!(layer_of("dyn.delete"), "dyn");
        assert_eq!(layer_of("gen.build"), "gen");
        assert_eq!(layer_of("svc.journal_append"), "svc");
        assert_eq!(layer_of("request"), "svc");
    }
}
