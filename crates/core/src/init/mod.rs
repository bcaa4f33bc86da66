//! Maximal-matching initializers.
//!
//! Maximum matching algorithms are much faster when started from a good
//! maximal matching: the paper initializes **all** algorithms with
//! Karp-Sipser (§II-B), citing it as one of the best initializers for
//! cardinality matching. A simple greedy initializer is provided for
//! ablation, and [`Initializer::None`] starts from the empty matching.
//! Karp-Sipser also has a multithreaded form, [`parallel_karp_sipser`],
//! which the solve dispatcher runs inside a parallel algorithm's pool.

mod greedy;
mod karp_sipser;
mod karp_sipser_two;

pub use greedy::{greedy_maximal, random_greedy};
pub use karp_sipser::{karp_sipser, parallel_karp_sipser};
// Claim-protocol internals for the graft-check model suite; invisible
// otherwise.
#[cfg(graft_check)]
#[doc(hidden)]
pub use karp_sipser::check_api as ks_check_api;
pub use karp_sipser_two::karp_sipser_two;

use crate::Matching;
use graft_graph::BipartiteCsr;

/// Which initial maximal matching to compute before the maximum-matching
/// search starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Initializer {
    /// Start from the empty matching.
    None,
    /// Greedy maximal matching (first-fit in vertex order).
    Greedy,
    /// Greedy with seeded random vertex order and random neighbor choice —
    /// leaves a realistic residual on every graph class, which the
    /// experiment harness uses to exercise the phase dynamics.
    RandomGreedy,
    /// Karp-Sipser with the degree-1 rule and seeded random picks — the
    /// paper's choice.
    #[default]
    KarpSipser,
    /// Karp-Sipser with both the degree-1 and degree-2 (contraction)
    /// rules — the stronger KS2 variant of Duff, Kaya & Uçar.
    KarpSipserTwo,
}

impl Initializer {
    /// Computes the initial matching for `g`, serially and
    /// deterministically at any ambient thread count. `seed` drives the
    /// random choices of [`Initializer::RandomGreedy`],
    /// [`Initializer::KarpSipser`] and [`Initializer::KarpSipserTwo`];
    /// the other two ignore it. The solve dispatcher runs
    /// [`parallel_karp_sipser`] instead for a parallel algorithm.
    pub fn run(self, g: &BipartiteCsr, seed: u64) -> Matching {
        match self {
            Initializer::None => Matching::for_graph(g),
            Initializer::Greedy => greedy_maximal(g),
            Initializer::RandomGreedy => random_greedy(g, seed),
            Initializer::KarpSipser => karp_sipser(g, seed),
            Initializer::KarpSipserTwo => karp_sipser_two(g, seed),
        }
    }

    /// Parses the names used by the harness `--init` flag.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Some(Initializer::None),
            "greedy" => Some(Initializer::Greedy),
            "random-greedy" | "randomgreedy" => Some(Initializer::RandomGreedy),
            "karp-sipser" | "karpsipser" | "ks" => Some(Initializer::KarpSipser),
            "karp-sipser-2" | "karpsipser2" | "ks2" => Some(Initializer::KarpSipserTwo),
            _ => None,
        }
    }

    /// Short display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Initializer::None => "none",
            Initializer::Greedy => "greedy",
            Initializer::RandomGreedy => "random-greedy",
            Initializer::KarpSipser => "karp-sipser",
            Initializer::KarpSipserTwo => "karp-sipser-2",
        }
    }
}

/// Asserts (in tests) that `m` is maximal in `g`: no edge has both
/// endpoints unmatched.
pub fn is_maximal(g: &BipartiteCsr, m: &Matching) -> bool {
    g.edges()
        .all(|(x, y)| m.is_x_matched(x) || m.is_y_matched(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initializer_dispatch() {
        let g = BipartiteCsr::from_edges(3, 3, &[(0, 0), (1, 1), (2, 2), (0, 1)]);
        assert_eq!(Initializer::None.run(&g, 0).cardinality(), 0);
        let gm = Initializer::Greedy.run(&g, 0);
        let km = Initializer::KarpSipser.run(&g, 0);
        assert!(is_maximal(&g, &gm));
        assert!(is_maximal(&g, &km));
        assert!(gm.validate(&g).is_ok());
        assert!(km.validate(&g).is_ok());
    }

    #[test]
    fn names() {
        assert_eq!(Initializer::KarpSipser.name(), "karp-sipser");
        assert_eq!(Initializer::default(), Initializer::KarpSipser);
    }
}
