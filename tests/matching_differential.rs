//! Differential testing of the [`Matching`] state machine: random
//! operation sequences are executed both on the real type and on a naive
//! `HashMap`-based reference model; the observable state must agree after
//! every step.

use ms_bfs_graft::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

/// The reference model: two hash maps kept trivially consistent.
#[derive(Default, Clone)]
struct Model {
    xy: HashMap<u32, u32>,
    yx: HashMap<u32, u32>,
}

impl Model {
    fn match_pair(&mut self, x: u32, y: u32) {
        assert!(!self.xy.contains_key(&x));
        assert!(!self.yx.contains_key(&y));
        self.xy.insert(x, y);
        self.yx.insert(y, x);
    }

    fn rematch(&mut self, x: u32, y: u32) {
        if self.yx.get(&y) == Some(&x) {
            return;
        }
        if let Some(old_x) = self.yx.remove(&y) {
            self.xy.remove(&old_x);
        }
        if let Some(old_y) = self.xy.remove(&x) {
            self.yx.remove(&old_y);
        }
        self.xy.insert(x, y);
        self.yx.insert(y, x);
    }

    fn unmatch_x(&mut self, x: u32) {
        let y = self.xy.remove(&x).expect("model unmatch of unmatched x");
        self.yx.remove(&y);
    }
}

#[derive(Clone, Debug)]
enum Op {
    MatchPair(u32, u32),
    Rematch(u32, u32),
    UnmatchX(u32),
}

fn arb_ops(n: u32, len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0..n, 0..n).prop_map(|(x, y)| Op::MatchPair(x, y)),
            (0..n, 0..n).prop_map(|(x, y)| Op::Rematch(x, y)),
            (0..n).prop_map(Op::UnmatchX),
        ],
        0..len,
    )
}

/// Sizes at and around multiples of the 64-entry block that the unmatched
/// iterators test at once, the small size of the model test, and sizes of
/// several blocks with a partial last one.
fn arb_size() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(1),
        Just(10),
        Just(63),
        Just(64),
        Just(65),
        Just(127),
        Just(128),
        Just(129),
        280u32..320,
    ]
}

/// The `x` of the pairs `(x, x)` to match in `0..n`: each with one drawn
/// probability, often 0 or 1; or all but one id next to a block boundary;
/// or that id alone.
fn arb_fill(n: u32) -> impl Strategy<Value = Vec<u32>> {
    let percent = prop_oneof![Just(0u64), Just(100), 0u64..=100];
    let by_percent = (percent, 0u64..u64::MAX).prop_map(move |(percent, seed)| {
        (0..n)
            .filter(|&x| splitmix(seed ^ u64::from(x)) % 100 < percent)
            .collect()
    });
    let edges: Vec<u32> = [0, 1, 62, 63, 64, 65, 126, 127, 128, 129]
        .into_iter()
        .chain([n.wrapping_sub(2), n.wrapping_sub(1)])
        .filter(|&v| v < n)
        .collect();
    let one = (0..edges.len().max(1), 0u8..2).prop_map(move |(i, alone)| {
        let Some(&v) = edges.get(i) else {
            return Vec::new();
        };
        (0..n).filter(|&x| (x == v) == (alone == 1)).collect()
    });
    prop_oneof![by_percent, one]
}

/// The splitmix64 finalizer: a well-mixed hash of `z`.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn agree(m: &Matching, model: &Model, n: u32) -> Result<(), TestCaseError> {
    prop_assert_eq!(m.cardinality(), model.xy.len());
    for x in 0..n {
        let expect = model.xy.get(&x).copied().unwrap_or(NONE);
        prop_assert_eq!(m.mate_of_x(x), expect, "mate_of_x({})", x);
    }
    for y in 0..n {
        let expect = model.yx.get(&y).copied().unwrap_or(NONE);
        prop_assert_eq!(m.mate_of_y(y), expect, "mate_of_y({})", y);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matching_agrees_with_model(ops in arb_ops(12, 60)) {
        let n = 12u32;
        let mut m = Matching::empty(n as usize, n as usize);
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::MatchPair(x, y) => {
                    // Only legal when both endpoints are free.
                    if m.is_x_matched(x) || m.is_y_matched(y) {
                        continue;
                    }
                    m.match_pair(x, y);
                    model.match_pair(x, y);
                }
                Op::Rematch(x, y) => {
                    m.rematch(x, y);
                    model.rematch(x, y);
                }
                Op::UnmatchX(x) => {
                    if !m.is_x_matched(x) {
                        continue;
                    }
                    m.unmatch_x(x);
                    model.unmatch_x(x);
                }
            }
            agree(&m, &model, n)?;
        }
        // Round-trip through the raw arrays keeps everything intact.
        let rebuilt = Matching::from_mates(m.mates_x().to_vec(), m.mates_y().to_vec());
        prop_assert_eq!(rebuilt, m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn unmatched_iterators_complement_edges(
        (n, fill, ops) in arb_size().prop_flat_map(|n| (Just(n), arb_fill(n), arb_ops(n.max(1), 40)))
    ) {
        let mut m = Matching::empty(n as usize, n as usize);
        // A fraction of the pairs (x, x) first, from none to all, so that
        // a run of blocks holds no free vertex, every vertex, or some.
        for x in fill {
            m.match_pair(x, x);
        }
        for op in ops {
            match op {
                Op::MatchPair(x, y) | Op::Rematch(x, y) if x >= n || y >= n => {}
                Op::UnmatchX(x) if x >= n => {}
                Op::MatchPair(x, y) if !m.is_x_matched(x) && !m.is_y_matched(y) => {
                    m.match_pair(x, y)
                }
                Op::Rematch(x, y) => {
                    m.rematch(x, y);
                }
                Op::UnmatchX(x) if m.is_x_matched(x) => m.unmatch_x(x),
                _ => {}
            }
        }
        // Both iterators give exactly the per-index filter, ascending.
        let free = |mates: &[u32]| -> Vec<u32> { (0..n).filter(|&v| mates[v as usize] == NONE).collect() };
        let unmatched_x: Vec<u32> = m.unmatched_x().collect();
        let unmatched_y: Vec<u32> = m.unmatched_y().collect();
        prop_assert_eq!(&unmatched_x, &free(m.mates_x()), "n = {}", n);
        prop_assert_eq!(&unmatched_y, &free(m.mates_y()), "n = {}", n);
        let matched_x: Vec<u32> = m.edges().map(|(x, _)| x).collect();
        prop_assert_eq!(matched_x.len() + unmatched_x.len(), n as usize);
        for x in unmatched_x {
            prop_assert!(!matched_x.contains(&x));
        }
        let matched_y: Vec<u32> = m.edges().map(|(_, y)| y).collect();
        prop_assert_eq!(matched_y.len() + unmatched_y.len(), n as usize);
    }
}
