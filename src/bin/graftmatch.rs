//! `graftmatch` — command-line maximum bipartite matching.
//!
//! Reads a Matrix Market file (or generates a named suite analog), runs
//! the chosen algorithm, certifies the result with a König cover, and
//! optionally reports the Dulmage-Mendelsohn block structure.
//!
//! ```text
//! graftmatch --mtx matrix.mtx [--algorithm ms-bfs-graft-par] [--threads N]
//!            [--init karp-sipser] [--seed S] [--dm] [--out matching.txt]
//! graftmatch --suite wikipedia --scale small --dm --trace run.jsonl
//! graftmatch serve [--addr 127.0.0.1:0] [--workers N] [--threads-per-solve N]
//!                  [--queue N] [--cache-mb N]
//!                  [--trace-events N] [--state DIR] [--drain-ms N]
//!                  [--max-graph-mb N] [--max-connections N]
//!                  [--snapshot-interval-ms N] [--faults SPEC]
//! graftmatch solve-remote --addr HOST:PORT --name NAME [--algorithm A]
//!                         [--timeout-ms N] [--threads N] [--cold]
//!                         [--batch N] [--attempts N] [--retry-seed S]
//! graftmatch update --addr HOST:PORT NAME (add|del) X Y
//!                   [--attempts N] [--retry-seed S]
//! graftmatch sim --seed N [--ops N] [--no-faults] [--log]
//! ```
//!
//! `sim` replays one deterministic simulation scenario: the whole
//! service stack (server, scheduler, retry client, fault plan) runs
//! in-process on a virtual clock and a simulated network, every source
//! of nondeterminism derived from `--seed`. The same seed always
//! produces a byte-identical event log, so a seed printed by a failing
//! CI run replays the failure locally.
//!
//! `serve` installs a SIGINT/SIGTERM handler that drains gracefully:
//! in-flight solves finish (bounded by `--drain-ms`), a final snapshot
//! is written when `--state` is set, then the process exits 0.

use ms_bfs_graft::prelude::*;
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: graftmatch (--mtx FILE | --suite NAME) [options]\n\
         \x20      graftmatch serve [serve options]\n\
         \x20      graftmatch solve-remote --addr HOST:PORT --name NAME [remote options]\n\
         \x20      graftmatch update --addr HOST:PORT NAME (add|del) X Y [remote options]\n\
         \x20      graftmatch sim --seed N [--ops N] [--no-faults] [--log]\n\
         options:\n\
           --algorithm A   ss-dfs|ss-bfs|pf|pf-par|hk|ms-bfs|ms-bfs-do|\n\
                           ms-bfs-graft|ms-bfs-graft-par|pr|pr-par|dist\n\
                           (default: ms-bfs-graft-par)\n\
           --threads N     thread count for parallel algorithms (0 = all)\n\
           --ranks N       rank count for --algorithm dist (default 4)\n\
           --init I        none|greedy|random-greedy|karp-sipser (default karp-sipser)\n\
           --seed S        initializer seed (default 1)\n\
           --scale S       tiny|small|medium|large for --suite (default small)\n\
           --reps N        repeat the solve N times against one reused\n\
                           workspace, reporting per-rep times (default 1)\n\
           --dm            print the Dulmage-Mendelsohn summary\n\
           --out FILE      write the matched pairs (x y per line)\n\
           --trace FILE    write a JSONL event trace of the solve\n\
                           (see `experiments trace-report`; not for dist)\n\
         serve options:\n\
           --addr A        bind address (default 127.0.0.1:0 = ephemeral port)\n\
           --workers N     solver worker threads (default 2)\n\
           --threads-per-solve N  default solver threads for a SOLVE that\n\
                           omits threads=k (default 1, must be <= workers)\n\
           --queue N       queued-job bound before ERR overloaded (default 64)\n\
           --cache-mb N    graph cache budget in MiB (default 256)\n\
           --trace-events N  trace ring capacity for TRACE (default 1024, 0 off)\n\
           --state DIR     persist registry snapshots to DIR; restore on boot\n\
           --drain-ms N    grace period for in-flight jobs on drain (default 5000)\n\
           --max-graph-mb N  refuse LOAD/GEN estimated above N MiB (default off)\n\
           --max-connections N  shed connections beyond N (default 256)\n\
           --snapshot-interval-ms N  periodic snapshot cadence (default 30000, 0 off)\n\
           --fsync POLICY  when UPDATE journal appends fsync: always |\n\
                           interval-ms=N | drain (default drain)\n\
           --faults SPEC   fault injection, e.g. seed=42,rate=25,max=16,sites=solver|reload\n\
         remote options:\n\
           --algorithm A   algorithm name sent with SOLVE (default ms-bfs-graft-par)\n\
           --timeout-ms N  server-side solve deadline\n\
           --threads N     worker threads the server should use (0 = its default)\n\
           --cold          ignore any cached warm start\n\
           --batch N       send N copies of the solve as one pipelined\n\
                           SOLVE_BATCH round trip (0 = plain SOLVE)\n\
           --attempts N    total attempts incl. the first (default 5)\n\
           --retry-seed S  jitter seed for the backoff schedule (default policy seed)\n\
         sim options:\n\
           --seed N        scenario seed; same seed => byte-identical log\n\
           --ops N         workload length in operations (default 48)\n\
           --no-faults     disable the seeded fault plan\n\
           --no-disk-faults  disable the simulated disk (no persistence,\n\
                           no post-run crash-recovery check)\n\
           --log           print the full normalized event log"
    );
    std::process::exit(2);
}

fn serve_main(args: Vec<String>) -> ! {
    let mut cfg = svc::ServeConfig::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut next = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--addr" => cfg.addr = next(),
            "--workers" => cfg.workers = next().parse().unwrap_or_else(|_| usage()),
            "--threads-per-solve" => {
                cfg.threads_per_solve = next().parse().unwrap_or_else(|_| usage())
            }
            "--queue" => cfg.queue_capacity = next().parse().unwrap_or_else(|_| usage()),
            "--cache-mb" => {
                cfg.cache_bytes = next().parse::<usize>().unwrap_or_else(|_| usage()) << 20
            }
            "--trace-events" => cfg.trace_events = next().parse().unwrap_or_else(|_| usage()),
            "--state" => cfg.state_dir = Some(std::path::PathBuf::from(next())),
            "--drain-ms" => cfg.drain_ms = next().parse().unwrap_or_else(|_| usage()),
            "--max-graph-mb" => {
                cfg.max_graph_bytes = next().parse::<usize>().unwrap_or_else(|_| usage()) << 20
            }
            "--max-connections" => cfg.max_connections = next().parse().unwrap_or_else(|_| usage()),
            "--snapshot-interval-ms" => {
                cfg.snapshot_interval_ms = next().parse().unwrap_or_else(|_| usage())
            }
            "--fsync" => {
                cfg.fsync = svc::FsyncPolicy::parse(&next()).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--faults" => cfg.fault_spec = Some(next()),
            _ => usage(),
        }
    }
    let server = match svc::Server::bind(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve failed: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            // Printed line is load-bearing: clients scrape the bound
            // address (the default port is ephemeral).
            println!("graft-svc listening on {addr}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            std::process::exit(1);
        }
    }
    // SIGINT/SIGTERM start the same drain protocol as SHUTDOWN; `run`
    // returns once in-flight jobs finish and the final snapshot lands.
    if let Ok(handle) = server.shutdown_handle() {
        if let Err(e) = ctrlc::set_handler(move || handle.initiate()) {
            eprintln!("warning: no signal handler, use SHUTDOWN to stop: {e}");
        }
    }
    match server.run() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("serve failed: {e}");
            std::process::exit(1);
        }
    }
}

fn solve_remote_main(args: Vec<String>) -> ! {
    let mut addr: Option<String> = None;
    let mut name: Option<String> = None;
    let mut algorithm = "ms-bfs-graft-par".to_string();
    let mut timeout_ms: Option<u64> = None;
    let mut threads = 0usize;
    let mut cold = false;
    let mut batch = 0usize;
    let mut policy = svc::RetryPolicy::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut next = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--addr" => addr = Some(next()),
            "--name" => name = Some(next()),
            "--algorithm" => algorithm = next(),
            "--timeout-ms" => timeout_ms = Some(next().parse().unwrap_or_else(|_| usage())),
            "--threads" => threads = next().parse().unwrap_or_else(|_| usage()),
            "--cold" => cold = true,
            "--batch" => batch = next().parse().unwrap_or_else(|_| usage()),
            "--attempts" => policy.max_attempts = next().parse().unwrap_or_else(|_| usage()),
            "--retry-seed" => policy.seed = next().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let (addr, name) = match (addr, name) {
        (Some(a), Some(n)) => (a, n),
        _ => usage(),
    };
    let algorithm = Algorithm::parse(&algorithm).unwrap_or_else(|| usage());
    let spec = svc::SolveSpec {
        name,
        algorithm,
        timeout_ms,
        threads,
        cold,
    };
    let mut client = svc::RetryClient::new(addr, policy);
    if batch > 0 {
        // One pipelined round trip carrying `batch` copies of the solve.
        let members: Vec<String> = (0..batch).map(|_| spec.wire_args()).collect();
        match client.request_batch(&members) {
            Ok(replies) => {
                if client.retries > 0 {
                    eprintln!("succeeded after {} retr(ies)", client.retries);
                }
                let all_ok = replies.iter().all(|r| r.starts_with("OK"));
                for reply in replies {
                    println!("{reply}");
                }
                std::process::exit(if all_ok { 0 } else { 1 });
            }
            Err(e) => {
                eprintln!("solve-remote failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let line = svc::Request::Solve(spec).wire();
    match client.request(&line) {
        Ok(reply) => {
            if client.retries > 0 {
                eprintln!("succeeded after {} retr(ies)", client.retries);
            }
            println!("{reply}");
            std::process::exit(if reply.starts_with("OK") { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("solve-remote failed: {e}");
            std::process::exit(1);
        }
    }
}

fn update_main(args: Vec<String>) -> ! {
    let mut addr: Option<String> = None;
    let mut policy = svc::RetryPolicy::default();
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut next = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--addr" => addr = Some(next()),
            "--attempts" => policy.max_attempts = next().parse().unwrap_or_else(|_| usage()),
            "--retry-seed" => policy.seed = next().parse().unwrap_or_else(|_| usage()),
            _ => positional.push(a),
        }
    }
    let addr = addr.unwrap_or_else(|| usage());
    let [name, op, x, y]: [String; 4] = match positional.try_into() {
        Ok(p) => p,
        Err(_) => usage(),
    };
    let add = match op.to_ascii_lowercase().as_str() {
        "add" => true,
        "del" => false,
        _ => usage(),
    };
    let spec = svc::UpdateSpec {
        name,
        add,
        x: x.parse().unwrap_or_else(|_| usage()),
        y: y.parse().unwrap_or_else(|_| usage()),
    };
    let mut client = svc::RetryClient::new(addr, policy);
    match client.request(&svc::Request::Update(spec).wire()) {
        Ok(reply) => {
            if client.retries > 0 {
                eprintln!("succeeded after {} retr(ies)", client.retries);
            }
            println!("{reply}");
            std::process::exit(if reply.starts_with("OK") { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("update failed: {e}");
            std::process::exit(1);
        }
    }
}

fn sim_main(args: Vec<String>) -> ! {
    let mut cfg = svc::ScenarioConfig::default();
    let mut want_log = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut next = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--seed" => cfg.seed = next().parse().unwrap_or_else(|_| usage()),
            "--ops" => cfg.ops = next().parse().unwrap_or_else(|_| usage()),
            "--no-faults" => cfg.with_faults = false,
            "--no-disk-faults" => cfg.disk_faults = false,
            "--log" => want_log = true,
            _ => usage(),
        }
    }
    let report = svc::Scenario::new(cfg).run();
    if want_log {
        print!("{}", report.log);
    }
    println!(
        "sim seed={} requests={} violations={}",
        report.seed,
        report.requests,
        report.violations.len()
    );
    for v in &report.violations {
        eprintln!("violation: {v}");
    }
    std::process::exit(if report.ok() { 0 } else { 1 });
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        serve_main(args.split_off(1));
    }
    if args.first().map(String::as_str) == Some("sim") {
        sim_main(args.split_off(1));
    }
    if args.first().map(String::as_str) == Some("solve-remote") {
        solve_remote_main(args.split_off(1));
    }
    if args.first().map(String::as_str) == Some("update") {
        update_main(args.split_off(1));
    }
    let mut mtx: Option<String> = None;
    let mut suite: Option<String> = None;
    let mut algorithm = "ms-bfs-graft-par".to_string();
    let mut threads = 0usize;
    let mut ranks = 4usize;
    let mut init = matching::init::Initializer::KarpSipser;
    let mut seed = 1u64;
    let mut scale = gen::Scale::Small;
    let mut reps = 1usize;
    let mut want_dm = false;
    let mut out_path: Option<String> = None;
    let mut trace_path: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut next = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--mtx" => mtx = Some(next()),
            "--suite" => suite = Some(next()),
            "--algorithm" => algorithm = next(),
            "--threads" => threads = next().parse().unwrap_or_else(|_| usage()),
            "--ranks" => ranks = next().parse().unwrap_or_else(|_| usage()),
            "--init" => {
                init = matching::init::Initializer::parse(&next()).unwrap_or_else(|| usage())
            }
            "--seed" => seed = next().parse().unwrap_or_else(|_| usage()),
            "--scale" => scale = gen::Scale::parse(&next()).unwrap_or_else(|| usage()),
            "--reps" => reps = next().parse().unwrap_or_else(|_| usage()),
            "--dm" => want_dm = true,
            "--out" => out_path = Some(next()),
            "--trace" => trace_path = Some(next()),
            _ => usage(),
        }
    }

    let g = match (mtx, suite) {
        (Some(path), None) => graph::mtx::read_mtx_file(&path).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(1);
        }),
        (None, Some(name)) => match gen::suite::by_name(&name) {
            Some(entry) => entry.build(scale),
            None => {
                eprintln!("unknown suite graph `{name}`; known:");
                for e in gen::suite::suite() {
                    eprintln!("  {}", e.name);
                }
                std::process::exit(1);
            }
        },
        _ => usage(),
    };
    eprintln!(
        "graph: {} rows × {} cols, {} nonzeros",
        g.num_x(),
        g.num_y(),
        g.num_edges()
    );

    let started = std::time::Instant::now();
    let m0 = init.run(&g, seed);
    eprintln!(
        "{} initialization: |M₀| = {}",
        init.name(),
        m0.cardinality()
    );

    let tracer = match &trace_path {
        Some(path) if algorithm == "dist" => {
            eprintln!("--trace is not supported with --algorithm dist; ignoring {path}");
            Tracer::disabled()
        }
        Some(path) => match matching::trace::JsonlSink::create(std::path::Path::new(path)) {
            Ok(sink) => Tracer::to_sink(std::sync::Arc::new(sink)),
            Err(e) => {
                eprintln!("cannot create trace file {path}: {e}");
                std::process::exit(1);
            }
        },
        None => Tracer::disabled(),
    };

    let (matching_result, label) = if algorithm == "dist" {
        let out = distributed_ms_bfs_graft(&g, m0, ranks);
        eprintln!(
            "distributed: {} supersteps, {} messages, {} phases",
            out.stats.supersteps, out.stats.messages, out.stats.phases
        );
        (out.matching, "dist".to_string())
    } else {
        let alg = Algorithm::parse(&algorithm).unwrap_or_else(|| usage());
        let opts = SolveOptions {
            initializer: matching::init::Initializer::None, // already applied
            threads,
            ..SolveOptions::default()
        };
        // One workspace shared by all reps: rep 1 grows it, later reps run
        // allocation-free on the serial engines. Only rep 1 is traced, so
        // a `--trace` file describes a single solve regardless of --reps.
        let mut ws = SolveWorkspace::new();
        let out = solve_from_traced_in(&g, m0.clone(), alg, &opts, &tracer, &mut ws);
        if reps > 1 {
            eprintln!(
                "rep 1: {:.3?} (|M| = {}, cold workspace)",
                out.stats.elapsed,
                out.matching.cardinality()
            );
        }
        for rep in 1..reps.max(1) {
            let again =
                solve_from_traced_in(&g, m0.clone(), alg, &opts, &Tracer::disabled(), &mut ws);
            eprintln!(
                "rep {}: {:.3?} (|M| = {})",
                rep + 1,
                again.stats.elapsed,
                again.matching.cardinality()
            );
        }
        eprintln!(
            "{}: {} phases, {} augmenting paths, {} edges traversed",
            alg.name(),
            out.stats.phases,
            out.stats.augmenting_paths,
            out.stats.edges_traversed
        );
        (out.matching, alg.name().to_string())
    };
    let elapsed = started.elapsed();
    if let Err(e) = tracer.flush() {
        eprintln!("trace write failed: {e}");
        std::process::exit(1);
    }
    if let Some(path) = &trace_path {
        if algorithm != "dist" {
            eprintln!("trace written to {path}");
        }
    }

    match matching::verify::certify_maximum(&g, &matching_result) {
        Ok(cover) => eprintln!(
            "certified maximum: |M| = {} = |König cover| = {}",
            matching_result.cardinality(),
            cover.size()
        ),
        Err(e) => {
            eprintln!("CERTIFICATION FAILED: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "{label}: cardinality {} of max {} rows / {} cols in {:.3?}",
        matching_result.cardinality(),
        g.num_x(),
        g.num_y(),
        elapsed
    );

    if want_dm {
        let dm = DmDecomposition::with_matching(&g, matching_result.clone());
        let (h, s, v) = dm.row_counts();
        let (hc, sc, vc) = dm.col_counts();
        println!("Dulmage-Mendelsohn: rows H/S/V = {h}/{s}/{v}, cols = {hc}/{sc}/{vc}");
        println!(
            "square part: {} irreducible blocks (largest {})",
            dm.square_blocks.len(),
            dm.square_blocks.iter().map(Vec::len).max().unwrap_or(0)
        );
        println!(
            "structurally nonsingular: {}",
            if dm.is_structurally_nonsingular() {
                "yes"
            } else {
                "no"
            }
        );
    }

    if let Some(path) = out_path {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        }));
        for (x, y) in matching_result.edges() {
            writeln!(f, "{x} {y}").expect("write failed");
        }
        eprintln!("matching written to {path}");
    }
}
