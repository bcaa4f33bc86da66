//! The paper's future work, realized: distributed-memory MS-BFS-Graft on
//! a BSP message-passing substrate, swept over rank counts to show how
//! communication volume scales.
//!
//! Run with: `cargo run --release --example distributed_matching`

use ms_bfs_graft::prelude::*;

fn main() {
    let entry = gen::suite::by_name("coPapersDBLP").expect("suite graph");
    let g = entry.build(gen::Scale::Tiny);
    let m0 = matching::init::Initializer::RandomGreedy.run(&g, 7);
    println!(
        "instance: {} analog, {}×{}, {} edges, initial matching {}\n",
        entry.name,
        g.num_x(),
        g.num_y(),
        g.num_edges(),
        m0.cardinality()
    );

    // Shared-memory reference.
    let shared = solve_from_in(
        &g,
        m0.clone(),
        Algorithm::MsBfsGraftParallel,
        &SolveOptions::default(),
        &mut SolveWorkspace::new(),
    );
    println!(
        "shared-memory MS-BFS-Graft: |M| = {}, {} phases",
        shared.matching.cardinality(),
        shared.stats.phases
    );
    matching::verify::certify_maximum(&g, &shared.matching).unwrap();

    println!(
        "\n{:>6} {:>8} {:>12} {:>12} {:>8} {:>8}",
        "ranks", "|M|", "messages", "supersteps", "phases", "paths"
    );
    for ranks in [1, 2, 4, 8, 16] {
        let out = distributed_ms_bfs_graft(&g, m0.clone(), ranks);
        matching::verify::certify_maximum(&g, &out.matching)
            .expect("distributed result must certify");
        assert_eq!(out.matching.cardinality(), shared.matching.cardinality());
        println!(
            "{:>6} {:>8} {:>12} {:>12} {:>8} {:>8}",
            ranks,
            out.matching.cardinality(),
            out.stats.messages,
            out.stats.supersteps,
            out.stats.phases,
            out.stats.augmenting_paths
        );
    }
    println!("\nall rank counts agree with the shared-memory engine and certify maximum ✓");
    println!("(communication grows with ranks while supersteps stay level-bound — the");
    println!(" trade-off a real MPI implementation of the paper's future work would tune)");
}
