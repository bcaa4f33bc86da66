//! The three workloads and their seeded request streams.
//!
//! The service only ever sees the request lines built here. Which edges
//! each workload deletes and restores, and in what order, comes from the
//! seed alone: the same seed gives a byte-identical stream.

use graft_gen::{suite, Scale};
use graft_graph::BipartiteCsr;

/// Delete/restore pairs in one stream; a run that uses more wraps around.
pub const PAIRS: usize = 1 << 16;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// First solve of a 192k x 192k kkt_power graph: Karp-Sipser init
    /// plus a short engine run with wide frontiers.
    ColdKkt,
    /// First solve of a 32k x 32k road graph: ~35 phases of narrow
    /// top-down levels.
    ColdRoad,
    /// Warm solves and journaled edge updates on a resident kkt_power
    /// graph, from two connections.
    ServeKkt,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::ColdKkt, Workload::ColdRoad, Workload::ServeKkt];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdKkt => "cold-kkt",
            Workload::ColdRoad => "cold-road",
            Workload::ServeKkt => "serve-kkt",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Registry name of the workload's graph.
    pub fn graph_name(self) -> &'static str {
        match self {
            Workload::ColdRoad => "road",
            Workload::ColdKkt | Workload::ServeKkt => "kkt",
        }
    }

    /// Suite entry and scale of the workload's graph.
    pub fn suite_graph(self) -> (&'static str, Scale) {
        match self {
            Workload::ColdRoad => ("road_usa", Scale::Small),
            Workload::ColdKkt | Workload::ServeKkt => ("kkt_power", Scale::Medium),
        }
    }

    /// Builds the workload's graph exactly as the service's `GEN` does.
    pub fn build_graph(self) -> BipartiteCsr {
        let (name, scale) = self.suite_graph();
        suite::by_name(name)
            .expect("workload graphs are suite entries")
            .build(scale)
    }

    /// The `GEN` line that registers the graph.
    pub fn gen_line(self) -> String {
        let (name, scale) = self.suite_graph();
        format!("GEN {} {name}:{}", self.graph_name(), scale.name())
    }

    /// The warm-up request of every setup, and the request of the cold
    /// workloads: a two-thread solve from scratch.
    pub fn cold_solve_line(self) -> String {
        format!(
            "SOLVE {} ms-bfs-graft-par threads=2 cold",
            self.graph_name()
        )
    }

    /// The solve request of the measured window.
    pub fn solve_line(self) -> String {
        match self {
            Workload::ServeKkt => format!("SOLVE {} ms-bfs-graft-par", self.graph_name()),
            Workload::ColdKkt | Workload::ColdRoad => self.cold_solve_line(),
        }
    }

    /// Whether the server journals updates (`state_dir` with
    /// `fsync: Always`).
    pub fn journaled(self) -> bool {
        self == Workload::ServeKkt
    }
}

/// One closed-loop client of a workload, on a connection of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Client {
    /// Sends the workload's solve request.
    Solver,
    /// Sends delete/restore pairs (serve-kkt's connection B).
    Updater,
}

impl Workload {
    /// The workload's clients.
    pub fn clients(self) -> &'static [Client] {
        match self {
            Workload::ServeKkt => &[Client::Solver, Client::Updater],
            Workload::ColdKkt | Workload::ColdRoad => &[Client::Solver],
        }
    }
}

/// The request lines of cycle `c` of `client`. A client sends whole
/// cycles, and each cycle leaves the edge set as it found it. Pair 0 of
/// `pairs` is the warm-up; cycles use pairs 1 and on, wrapping around.
pub fn cycle(w: Workload, client: Client, c: usize, pairs: &[(u32, u32)]) -> Vec<String> {
    match client {
        Client::Solver => vec![w.solve_line()],
        Client::Updater => pair_lines(w, pairs[(1 + c) % pairs.len()]).to_vec(),
    }
}

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole output is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2^-40 for the sizes
    /// used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `count` edges of `g`, each drawn uniformly from its edge list by the
/// seeded generator. Each becomes one delete/restore pair.
pub fn update_pairs(g: &BipartiteCsr, seed: u64, count: usize) -> Vec<(u32, u32)> {
    let mut rng = Rng::new(seed);
    let ptr = g.x_ptr();
    (0..count)
        .map(|_| {
            let e = rng.below(g.num_edges());
            // The X endpoint owns the CSR row that holds edge slot `e`.
            let x = ptr.partition_point(|&start| start <= e) - 1;
            (x as u32, g.x_adj()[e])
        })
        .collect()
}

/// The request lines of pair `(x, y)`: delete the edge, then restore it.
pub fn pair_lines(w: Workload, (x, y): (u32, u32)) -> [String; 2] {
    let g = w.graph_name();
    [
        format!("UPDATE {g} DEL {x} {y}"),
        format!("UPDATE {g} ADD {x} {y}"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_dyn::DynamicMatching;

    fn tiny(w: Workload) -> BipartiteCsr {
        suite::by_name(w.suite_graph().0)
            .expect("suite entry")
            .build(Scale::Tiny)
    }

    fn stream_bytes(w: Workload, g: &BipartiteCsr, seed: u64) -> String {
        let pairs = update_pairs(g, seed, 500);
        let [del, add] = pair_lines(w, pairs[0]);
        let mut out = format!("{}\n{}\n{del}\n{add}\n", w.gen_line(), w.cold_solve_line());
        for c in 0..40 {
            for &client in w.clients() {
                for line in cycle(w, client, c, &pairs) {
                    out.push_str(&line);
                    out.push('\n');
                }
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        for w in Workload::ALL {
            let g = tiny(w);
            assert_eq!(stream_bytes(w, &g, 42), stream_bytes(w, &g, 42));
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        for w in Workload::ALL {
            let g = tiny(w);
            assert_ne!(stream_bytes(w, &g, 1), stream_bytes(w, &g, 2));
        }
    }

    #[test]
    fn every_cycle_leaves_the_edge_set_unchanged() {
        for w in Workload::ALL {
            let g = tiny(w);
            let mut base: Vec<(u32, u32)> = g.edges().collect();
            base.sort_unstable();
            let pairs = update_pairs(&g, 7, 500);
            let mut dm = DynamicMatching::new(g.clone());
            for c in 0..100 {
                for &client in w.clients() {
                    for line in cycle(w, client, c, &pairs) {
                        let f: Vec<&str> = line.split_whitespace().collect();
                        let (x, y) = match f[..] {
                            ["UPDATE", _, _, x, y] => (x.parse().unwrap(), y.parse().unwrap()),
                            _ => continue,
                        };
                        if f[2] == "DEL" {
                            assert!(g.has_edge(x, y), "({x}, {y}) is not a base edge");
                            dm.delete_edge(x, y).expect("a base edge is live");
                        } else {
                            dm.insert_edge(x, y).expect("restore");
                        }
                    }
                    assert_eq!(dm.num_edges(), g.num_edges());
                }
            }
            let mut after: Vec<(u32, u32)> = dm.materialize().edges().collect();
            after.sort_unstable();
            assert_eq!(after, base);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("warm"), None);
    }
}
