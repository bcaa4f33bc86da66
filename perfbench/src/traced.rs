//! The traced run: replays a workload's seeded request stream inside the
//! process, with no server, calling each layer's public function the way
//! the service's `run_job` and `run_update` do, and records a span around
//! every call. It also runs each layer on its own: the engine at one and
//! two threads, the pool shim, and the calls a workload's own stream does
//! not make (a warm copy, seeded update pairs and journal appends on the
//! cold workloads, Karp-Sipser on serve-kkt), so that every layer metric
//! exists on every workload.

use crate::e2e::{self, check, Expected, Kind, Tally};
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workload::{cycle, pair_lines, Client, Workload};
use graft_core::trace::{replay, MemorySink, RunSummary};
use graft_core::{
    solve_from_in, solve_from_traced_in, Algorithm, Matching, SolveOptions, SolveWorkspace, Tracer,
};
use graft_dyn::{DynConfig, DynamicMatching, UpdateOutcome, UpdateReport};
use graft_graph::BipartiteCsr;
use graft_svc::registry::parse_gen_spec;
use graft_svc::{
    parse_request, AppendOutcome, FsyncPolicy, GraphRegistry, Journal, Metrics, RealDisk, Request,
    ServeConfig, Snapshot,
};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shares of `--seconds` given to each part of the traced run.
const E2E_SHARE: f64 = 0.3;
const REPLAY_SHARE: f64 = 0.25;
const SWEEP_SHARE: f64 = 0.2;
const PROBE_SHARE: f64 = 0.1;
/// Repetitions of the fixed-size probes.
const GEN_REPS: usize = 3;
const POOL_BUILD_REPS: usize = 200;
const POOL_FOLD_REPS: usize = 2000;
const COPY_REPS: usize = 20;
const INIT_REPS: usize = 3;
const APPEND_PAIRS: usize = 250;

/// The in-process stand-in for the service: the same registry, solver
/// workspace, dynamic matching and journal a worker would use.
struct Replay {
    registry: GraphRegistry,
    ws: SolveWorkspace,
    dm: Option<DynamicMatching>,
    journal: Option<Journal>,
    /// Reports of the updates run while spans were on.
    updates: Vec<UpdateReport>,
}

impl Replay {
    /// Registers the graph, runs the warm-up cold solve, builds the
    /// dynamic matching from the warm result, starts a journal epoch when
    /// the workload journals, and runs the warm-up pair, as the service's
    /// first `SOLVE` and first `UPDATE` do.
    fn set_up(
        w: Workload,
        spans: &mut Spans,
        exp: &Expected,
        state_dir: &Path,
    ) -> Result<Replay, String> {
        let registry = GraphRegistry::new(ServeConfig::default().cache_bytes);
        let (suite, scale) = w.suite_graph();
        let source =
            parse_gen_spec(&format!("{suite}:{}", scale.name())).map_err(|e| e.to_string())?;
        spans
            .leaf("svc.register", || registry.register(w.graph_name(), source))
            .map_err(|e| e.to_string())?;
        let mut replay = Replay {
            registry,
            ws: SolveWorkspace::new(),
            dm: None,
            journal: None,
            updates: Vec::new(),
        };
        replay.call(spans, &w.cold_solve_line(), exp.max)?;
        let (graph, warm) = replay
            .registry
            .get(w.graph_name())
            .map_err(|e| e.to_string())?;
        let warm = warm.ok_or("the warm-up solve stored no matching")?;
        replay.dm = Some(spans.leaf("dyn.build", || {
            DynamicMatching::with_warm_start(
                (*graph).clone(),
                (*warm).clone(),
                DynConfig::default(),
            )
        }));
        if w.journaled() {
            replay.journal = Some(start_journal(spans, &replay.registry, state_dir)?);
        }
        for line in pair_lines(w, exp.pairs[0]) {
            replay.call(spans, &line, exp.max)?;
        }
        Ok(replay)
    }

    /// Executes one request line and checks the cardinality it would
    /// have replied against `max`.
    fn call(&mut self, spans: &mut Spans, line: &str, max: usize) -> Result<(), String> {
        let request = spans
            .leaf("svc.parse", || parse_request(line))
            .map_err(|e| e.to_string())?;
        let (kind, cardinality) = match request {
            Request::Solve(spec) => {
                let (graph, warm) = spans
                    .leaf("svc.registry_get", || self.registry.get(&spec.name))
                    .map_err(|e| e.to_string())?;
                let threads = match spec.threads {
                    0 => ServeConfig::default().threads_per_solve,
                    t => t,
                };
                let opts = SolveOptions {
                    threads,
                    ..SolveOptions::default()
                };
                let m0 = match warm.filter(|_| !spec.cold) {
                    Some(m) => spans.leaf("svc.warm_copy", || (*m).clone()),
                    None => spans.leaf("core.init", || opts.initializer.run(&graph, opts.seed)),
                };
                let ws = &mut self.ws;
                let out = spans.leaf("core.engine", || {
                    solve_from_in(&graph, m0, spec.algorithm, &opts, ws)
                });
                let cardinality = out.stats.final_cardinality;
                spans.leaf("svc.store_warm", || {
                    self.registry.store_warm(&spec.name, out.matching)
                });
                (Kind::Solve, cardinality)
            }
            Request::Update(spec) => {
                let dm = self.dm.as_mut().ok_or("update before set-up")?;
                let report = if spec.add {
                    spans.leaf("dyn.insert", || dm.insert_edge(spec.x, spec.y))
                } else {
                    spans.leaf("dyn.delete", || dm.delete_edge(spec.x, spec.y))
                }
                .map_err(|e| e.to_string())?;
                if let Some(journal) = &self.journal {
                    if report.outcome != UpdateOutcome::Noop {
                        append(spans, journal, &spec.name, spec.add, spec.x, spec.y)?;
                    }
                }
                if spans.is_on() {
                    self.updates.push(report);
                }
                let kind = if spec.add {
                    Kind::Restore
                } else {
                    Kind::Delete
                };
                (kind, report.cardinality)
            }
            other => return Err(format!("unexpected request {other:?}")),
        };
        check(kind, cardinality, max)
    }
}

/// Replays `lines` as requests `first..`, each under a `request` span.
/// Returns each request's latency in µs, flagged when it is an update.
fn replay_pass(
    replay: &mut Replay,
    spans: &mut Spans,
    lines: &[String],
    first: u64,
    max: usize,
    tally: &mut Tally,
) -> Vec<(bool, f64)> {
    let mut lat = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        spans.request(first + i as u64);
        spans.enter("request");
        let t = Instant::now();
        let outcome = replay.call(spans, line, max);
        lat.push((
            Kind::of(line) != Kind::Solve,
            t.elapsed().as_secs_f64() * 1e6,
        ));
        spans.exit();
        tally.record(outcome);
    }
    spans.request(0);
    lat
}

/// A fresh journal over `dir` whose epoch holds the registry's graphs,
/// as the service's first journaled `UPDATE` writes it.
fn start_journal(
    spans: &mut Spans,
    registry: &GraphRegistry,
    dir: &Path,
) -> Result<Journal, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let journal = Journal::new(
        Arc::new(RealDisk),
        dir.to_path_buf(),
        FsyncPolicy::Always,
        Arc::new(Metrics::new()),
    );
    let snapshot = Snapshot {
        entries: registry.snapshot_entries(),
        deltas: Vec::new(),
        rebuilds: 0,
    };
    spans
        .leaf("svc.journal_rewrite", || journal.save_full(&snapshot, None))
        .map_err(|e| e.to_string())?;
    Ok(journal)
}

/// One fsynced journal record.
fn append(
    spans: &mut Spans,
    journal: &Journal,
    name: &str,
    add: bool,
    x: u32,
    y: u32,
) -> Result<(), String> {
    let appended = spans
        .leaf("svc.journal_append", || journal.try_append(name, add, x, y))
        .map_err(|e| e.to_string())?;
    match appended {
        AppendOutcome::Appended => Ok(()),
        AppendOutcome::NeedsRewrite => Err(format!("journal append for `{name}` needs a rewrite")),
    }
}

/// The workload's window requests, one cycle of every client per group;
/// a group leaves the edge set as it found it.
fn stream(w: Workload, exp: &Expected) -> impl Iterator<Item = Vec<String>> + '_ {
    (0..).map(move |c| {
        w.clients()
            .iter()
            .flat_map(|&client| cycle(w, client, c, &exp.pairs))
            .collect()
    })
}

/// One engine run outside the request path.
struct EngineSample {
    solve_ms: f64,
    stats: graft_core::stats::SearchStats,
}

/// Alternates one- and two-thread solves from `m_start` until `until`.
fn engine_sweep(g: &BipartiteCsr, m_start: &Matching, until: Instant) -> [Vec<EngineSample>; 2] {
    let mut ws = SolveWorkspace::new();
    let mut out = [Vec::new(), Vec::new()];
    while out[1].len() < 3 || Instant::now() < until {
        for (i, threads) in [1, 2].into_iter().enumerate() {
            let opts = SolveOptions {
                threads,
                ..SolveOptions::default()
            };
            let m0 = m_start.clone();
            let t = Instant::now();
            let run = solve_from_in(g, m0, Algorithm::MsBfsGraftParallel, &opts, &mut ws);
            out[i].push(EngineSample {
                solve_ms: t.elapsed().as_secs_f64() * 1e3,
                stats: run.stats,
            });
        }
    }
    out
}

/// Level, phase and graft counts of one solve traced into a `MemorySink`.
fn traced_counts(
    g: &BipartiteCsr,
    m_start: &Matching,
    threads: usize,
) -> Result<RunSummary, String> {
    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::to_sink(sink.clone());
    let opts = SolveOptions {
        threads,
        ..SolveOptions::default()
    };
    let mut ws = SolveWorkspace::new();
    solve_from_traced_in(
        g,
        m_start.clone(),
        Algorithm::MsBfsGraftParallel,
        &opts,
        &tracer,
        &mut ws,
    );
    replay(&sink.take())
        .map_err(|e| e.to_string())?
        .pop()
        .ok_or_else(|| "the traced solve emitted no run".to_string())
}

fn engine_metrics(
    out: &mut BTreeMap<String, f64>,
    t: &str,
    samples: &[EngineSample],
    run: &RunSummary,
) {
    let med = |f: &dyn Fn(&EngineSample) -> f64| {
        Summary::of(&samples.iter().map(f).collect::<Vec<_>>()).median()
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut put = |name: &str, v: f64| {
        out.insert(format!("engine.{name}.{t}"), v);
    };
    put("solve_ms", med(&|s| s.solve_ms));
    put("top_down_ms", med(&|s| ms(s.stats.breakdown.top_down)));
    put("bottom_up_ms", med(&|s| ms(s.stats.breakdown.bottom_up)));
    put("augment_ms", med(&|s| ms(s.stats.breakdown.augment)));
    put("graft_ms", med(&|s| ms(s.stats.breakdown.graft)));
    put("statistics_ms", med(&|s| ms(s.stats.breakdown.statistics)));
    put(
        "other_ms",
        med(&|s| {
            let b = &s.stats.breakdown;
            s.solve_ms - ms(b.top_down + b.bottom_up + b.augment + b.graft + b.statistics)
        }),
    );
    put(
        "mteps",
        med(&|s| s.stats.edges_traversed as f64 / s.solve_ms / 1e3),
    );
    put("phases", run.total_phases as f64);
    put(
        "levels",
        run.phases.iter().map(|p| p.levels).sum::<u64>() as f64,
    );
    put(
        "bottom_up_levels",
        run.phases.iter().map(|p| p.bottom_up_levels).sum::<u64>() as f64,
    );
    put("grafted_phases", run.graft_counts().0 as f64);
    put("edges_traversed", run.edges_traversed as f64);
    put("augmenting_paths", run.augmenting_paths as f64);
    // Wasted work per useful result; a warm solve finds no path at all.
    put(
        "edges_per_augment",
        run.edges_traversed as f64 / run.augmenting_paths.max(1) as f64,
    );
}

/// Builds and drops a two-thread pool, µs per repetition.
fn pool_build_us() -> Vec<f64> {
    (0..POOL_BUILD_REPS)
        .map(|_| {
            let t = Instant::now();
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(2)
                .build()
                .expect("the pool shim always builds");
            drop(pool);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// One fold/reduce over 64 items in a two-thread pool, µs per repetition:
/// the fixed cost of one narrow BFS level.
fn pool_fold_us() -> Vec<f64> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("the pool shim always builds");
    let items: Vec<u64> = (0..64).collect();
    pool.install(|| {
        (0..POOL_FOLD_REPS)
            .map(|_| {
                let t = Instant::now();
                let sum = items
                    .par_iter()
                    .fold(|| 0u64, |acc, &v| acc + v)
                    .reduce(|| 0, |a, b| a + b);
                std::hint::black_box(sum);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    })
}

/// What the traced run measured.
pub struct Outcome {
    /// Every per-layer metric by name.
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts and other detail for the report.
    pub report: Vec<String>,
    /// Every checked request: end-to-end pass and replays.
    pub tally: Tally,
}

/// Runs the traced run of `w` for about `seconds`, writing its spans to
/// `spans_path` when it ends.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    spans_path: &Path,
) -> Result<Outcome, String> {
    let secs = |share: f64| Duration::from_secs_f64(seconds * share);
    let mut spans = Spans::new(true);
    let mut metrics = BTreeMap::new();
    let mut report = Vec::new();
    let mut tally = Tally::default();

    // gen: the graph build GEN performs; the last one is the benchmark's
    // own copy, for the expected answers.
    let mut graph = None;
    for _ in 0..GEN_REPS {
        graph = Some(spans.leaf("gen.build", || w.build_graph()));
    }
    let exp = crate::expected(&graph.expect("GEN_REPS > 0"), seed)?;
    metrics.insert("gen.build_s".into(), median_us(&spans, "gen.build") / 1e6);

    // The end-to-end pass, tracing off: queue wait and per-verb medians.
    let e2e_out = e2e::run(w, &exp, 1, secs(E2E_SHARE), scratch).map_err(|e| e.to_string())?;
    metrics.insert("svc.queue_wait_us".into(), e2e_out.queue_wait_us);

    let mut replay = Replay::set_up(w, &mut spans, &exp, &scratch.join("journal"))?;

    // Replay with spans on for a while, then the same requests off.
    let until = Instant::now() + secs(REPLAY_SHARE);
    let mut lines = Vec::new();
    let mut on = Vec::new();
    for group in stream(w, &exp) {
        if Instant::now() >= until {
            break;
        }
        let first = 1 + lines.len() as u64;
        on.extend(replay_pass(
            &mut replay,
            &mut spans,
            &group,
            first,
            exp.max,
            &mut tally,
        ));
        lines.extend(group);
    }
    let mut quiet = Spans::new(false);
    let off = replay_pass(&mut replay, &mut quiet, &lines, 1, exp.max, &mut tally);
    let total = |v: &[(bool, f64)]| v.iter().map(|&(_, us)| us).sum::<f64>();
    metrics.insert(
        "trace.overhead_frac".into(),
        (total(&on) - total(&off)) / total(&off),
    );
    metrics.insert("svc.overhead_us".into(), overhead_us(&e2e_out, &off));
    report.push(format!(
        "replay requests={} spans_on_s={:.4} spans_off_s={:.4}",
        lines.len(),
        total(&on) / 1e6,
        total(&off) / 1e6
    ));

    // Self time per layer over the replayed requests.
    let by_layer = spans.self_us_by_layer();
    let request_us: f64 = by_layer.values().sum();
    for (layer, name) in [
        ("svc", "self.svc_frac"),
        ("core.init", "self.init_frac"),
        ("core.engine", "self.engine_frac"),
        ("dyn", "self.dyn_frac"),
    ] {
        metrics.insert(
            name.into(),
            by_layer.get(layer).copied().unwrap_or(0.0) / request_us,
        );
    }
    for (layer, us) in &by_layer {
        report.push(format!(
            "self layer={layer} ms={:.4} frac={:.4}",
            us / 1e3,
            us / request_us
        ));
    }

    // Calls the workload's own stream does not make.
    let (graph, warm) = replay
        .registry
        .get(w.graph_name())
        .map_err(|e| e.to_string())?;
    let warm = warm.ok_or("no warm matching after the replay")?;
    spans.enter("probe");
    if w.journaled() {
        let opts = SolveOptions::default();
        for _ in 0..INIT_REPS {
            spans.leaf("core.init", || opts.initializer.run(&graph, opts.seed));
        }
    } else {
        for _ in 0..COPY_REPS {
            spans.leaf("svc.warm_copy", || (*warm).clone());
        }
        let until = Instant::now() + secs(PROBE_SHARE);
        for c in 0.. {
            if Instant::now() >= until {
                break;
            }
            for line in cycle(w, Client::Updater, c, &exp.pairs) {
                tally.record(replay.call(&mut spans, &line, exp.max));
            }
        }
        let journal = start_journal(&mut spans, &replay.registry, &scratch.join("journal"))?;
        for &(x, y) in &exp.pairs[1..=APPEND_PAIRS] {
            append(&mut spans, &journal, w.graph_name(), false, x, y)?;
            append(&mut spans, &journal, w.graph_name(), true, x, y)?;
        }
    }
    spans.exit();

    let ks = SolveOptions::default();
    let ks_matching = ks.initializer.run(&graph, ks.seed);
    metrics.insert("init.ks_ms".into(), median_us(&spans, "core.init") / 1e3);
    metrics.insert(
        "init.matched_frac".into(),
        ks_matching.cardinality() as f64 / exp.max as f64,
    );
    for name in [
        "svc.parse",
        "svc.registry_get",
        "svc.warm_copy",
        "svc.store_warm",
        "svc.journal_append",
    ] {
        metrics.insert(format!("{name}_us"), median_us(&spans, name));
    }
    metrics.insert(
        "svc.journal_append_us.p99".into(),
        Summary::of(&spans.durations_us("svc.journal_append")).percentile(99.0),
    );
    dyn_metrics(&mut metrics, &mut report, &spans, &replay);

    // The engine at one and two threads from the Karp-Sipser start, on
    // every workload: a warm solve's frontier is empty, so its Fig. 6
    // steps take no time at all; its engine time is the replay's
    // `core.engine` spans.
    let [t1, t2] = engine_sweep(&graph, &ks_matching, Instant::now() + secs(SWEEP_SHARE));
    for (t, samples, threads) in [("t1", &t1, 1), ("t2", &t2, 2)] {
        let run = traced_counts(&graph, &ks_matching, threads)?;
        engine_metrics(&mut metrics, t, samples, &run);
        report.push(format!("engine {t} solves={}", samples.len()));
    }
    metrics.insert(
        "engine.speedup".into(),
        metrics["engine.solve_ms.t1"] / metrics["engine.solve_ms.t2"],
    );

    let build = Summary::of(&pool_build_us());
    let fold = Summary::of(&pool_fold_us());
    report.push(format!("pool.build_us {}", build.describe()));
    report.push(format!("pool.fold_us {}", fold.describe()));
    metrics.insert("pool.build_us".into(), build.median());
    metrics.insert("pool.fold_us".into(), fold.median());

    for name in [
        "gen.build",
        "core.init",
        "core.engine",
        "svc.parse",
        "svc.registry_get",
        "svc.warm_copy",
        "svc.store_warm",
        "svc.journal_append",
        "dyn.delete",
        "dyn.insert",
    ] {
        report.push(format!(
            "span {name}_us {}",
            Summary::of(&spans.durations_us(name)).describe()
        ));
    }
    spans.write_jsonl(spans_path).map_err(|e| e.to_string())?;
    report.push(format!(
        "spans written={} path={}",
        spans.all().len(),
        spans_path.display()
    ));
    tally.merge(e2e_out.timed.tally);
    Ok(Outcome {
        metrics,
        report,
        tally,
    })
}

fn median_us(spans: &Spans, name: &str) -> f64 {
    Summary::of(&spans.durations_us(name)).median()
}

/// End-to-end median minus the spans-off replay median, per verb,
/// weighted by each verb's share of the end-to-end window's requests.
fn overhead_us(e2e: &e2e::Outcome, off: &[(bool, f64)]) -> f64 {
    let replay_median = |update: bool| {
        let v: Vec<f64> = off.iter().filter(|r| r.0 == update).map(|r| r.1).collect();
        Summary::of(&v).median()
    };
    let n = (e2e.timed.solve.len() + e2e.timed.update.len()).max(1) as f64;
    [(false, &e2e.timed.solve), (true, &e2e.timed.update)]
        .into_iter()
        .filter(|(_, ms)| !ms.is_empty())
        .map(|(update, ms)| {
            let e2e_us = Summary::of(ms).median() * 1e3;
            ms.len() as f64 / n * (e2e_us - replay_median(update))
        })
        .sum()
}

fn dyn_metrics(
    out: &mut BTreeMap<String, f64>,
    report: &mut Vec<String>,
    spans: &Spans,
    replay: &Replay,
) {
    let ups = &replay.updates;
    let n = ups.len().max(1) as f64;
    let searches = ups
        .iter()
        .filter(|r| {
            matches!(
                r.outcome,
                UpdateOutcome::Repaired
                    | UpdateOutcome::Degraded
                    | UpdateOutcome::Augmented
                    | UpdateOutcome::NoPath
            )
        })
        .count();
    let repaired = ups
        .iter()
        .filter(|r| {
            matches!(
                r.outcome,
                UpdateOutcome::Repaired | UpdateOutcome::Augmented
            )
        })
        .count();
    let del = Summary::of(&spans.durations_us("dyn.delete"));
    let ins = Summary::of(&spans.durations_us("dyn.insert"));
    out.insert("dyn.delete_us".into(), del.median());
    out.insert("dyn.delete_us.p99".into(), del.percentile(99.0));
    out.insert("dyn.insert_us".into(), ins.median());
    out.insert("dyn.insert_us.p99".into(), ins.percentile(99.0));
    out.insert("dyn.search_frac".into(), searches as f64 / n);
    out.insert(
        "dyn.repaired_frac".into(),
        repaired as f64 / searches.max(1) as f64,
    );
    out.insert(
        "dyn.edges_per_update".into(),
        ups.iter().map(|r| r.edges_traversed).sum::<u64>() as f64 / n,
    );
    let dm = replay.dm.as_ref().expect("set up");
    out.insert("dyn.rebuilds".into(), dm.rebuilds() as f64);
    report.push(format!("dyn.delete_us {}", del.describe_percentile(99.0)));
    report.push(format!("dyn.insert_us {}", ins.describe_percentile(99.0)));
    report.push(format!(
        "dyn updates={} searches={searches} repaired={repaired}",
        ups.len()
    ));
}
