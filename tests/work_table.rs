//! The golden work table: the search work of every engine on every suite
//! graph, pinned so that a change in work shows as a reviewed diff of a
//! committed CSV rather than as timing noise.
//!
//! One row per suite graph × [`Algorithm::ALL`], solved at `threads: 1`
//! from the seed-1 Karp-Sipser start, where every count repeats exactly:
//! edges traversed, phases, BFS levels (summed over the replayed trace's
//! phases), augmenting paths, path edges, the final cardinality, and an
//! FNV-1a hash of `mates_x`.
//!
//! The Tiny rows run in tier 1. The Small rows are an ignored twin, run by
//! the release CI leg as `cargo test --release --offline --test work_table
//! -- --ignored`. On a mismatch a test writes the table it computed under
//! the cargo target's tmp directory and prints the `cp` command that
//! adopts it; a change that moves the table says why.

use gen::Scale;
use matching::trace::{replay, MemorySink};
use ms_bfs_graft::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;

const HEADER: &str =
    "graph,algorithm,edges_traversed,phases,levels,augmenting_paths,path_edges,cardinality,mates_fnv";

/// FNV-1a (64-bit) over the little-endian bytes of `mates_x`.
fn mates_hash(m: &Matching) -> u64 {
    m.mates_x().iter().fold(0xcbf2_9ce4_8422_2325, |h, &y| {
        y.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// The table at `scale`, header first, one line per row.
fn work_table(scale: Scale) -> String {
    let opts = SolveOptions {
        threads: 1,
        seed: 1,
        ..SolveOptions::default()
    };
    let mut out = format!("{HEADER}\n");
    for entry in gen::suite::suite() {
        let g = entry.build(scale);
        for alg in Algorithm::ALL {
            let sink = Arc::new(MemorySink::new());
            let tracer = Tracer::to_sink(Arc::clone(&sink) as _);
            let run =
                solve_from_traced_in(&g, None, alg, &opts, &tracer, &mut SolveWorkspace::new());
            let ctx = format!("{} on {}", alg.name(), entry.name);
            let trace = replay(&sink.take()).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let levels: u64 = trace[0].phases.iter().map(|p| p.levels).sum();
            let s = &run.stats;
            writeln!(
                out,
                "{},{},{},{},{levels},{},{},{},{:016x}",
                entry.name,
                alg.cli_name(),
                s.edges_traversed,
                s.phases,
                s.augmenting_paths,
                s.total_augmenting_path_edges,
                run.matching.cardinality(),
                mates_hash(&run.matching),
            )
            .unwrap();
        }
    }
    out
}

/// Compares the table at `scale` with `tests/golden/<file>`.
fn check(scale: Scale, file: &str) {
    let golden_path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    let got = work_table(scale);
    if got == golden {
        return;
    }
    let fresh = format!("{}/{file}", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&fresh, &got).unwrap();
    let want: Vec<&str> = golden.lines().collect();
    let moved: Vec<&str> = got.lines().filter(|row| !want.contains(row)).collect();
    panic!(
        "{} rows differ from {golden_path}:\n{}\n\
         If the change in work is intended, adopt the new table with\n    cp {fresh} {golden_path}\n\
         and say why it moved.",
        moved.len(),
        moved.join("\n"),
    );
}

#[test]
fn tiny_work_table_matches_golden() {
    check(Scale::Tiny, "work_tiny.csv");
}

/// About 3 s in release and far longer in debug, so it runs in the
/// release CI leg.
#[test]
#[ignore]
fn small_work_table_matches_golden() {
    check(Scale::Small, "work_small.csv");
}
