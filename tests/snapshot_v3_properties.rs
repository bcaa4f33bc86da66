//! Property-based corruption corpus for the v3 journal.
//!
//! A known-good journal (header, graph/warm/delta/rebuilds records,
//! appended update records) is corrupted two ways — truncation at an
//! arbitrary byte and a single bit flip at an arbitrary position — and
//! the loader must always do one of exactly two things: load cleanly,
//! or locate a truncation point and recover the record-prefix before
//! it. It must never panic, and never return a state the journal did
//! not actually pass through ("silently wrong" data).
//!
//! Every sealed record carries a CRC32, which detects all single-bit
//! errors, so a flip past the header line must *always* surface as a
//! located truncation, never a clean load.

use ms_bfs_graft::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::OnceLock;
use svc::snapshot;
use svc::{SimDisk, SimDiskConfig, Snapshot, SnapshotDelta, SnapshotEntry, WarmStart};

const DIR: &str = "state";

/// The known-good journal: one full save's worth of records plus a few
/// appended updates — every record kind the v3 grammar has.
fn corpus() -> &'static [u8] {
    static CORPUS: OnceLock<Vec<u8>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let snap = Snapshot {
            entries: vec![
                SnapshotEntry {
                    name: "ga".to_string(),
                    source: svc::GraphSource::Suite {
                        name: "kkt_power".to_string(),
                        scale: gen::Scale::Tiny,
                    },
                    warm: Some(WarmStart {
                        ny: 4,
                        mate_x: vec![2, -1, 0, 3],
                    }),
                },
                SnapshotEntry {
                    name: "gb".to_string(),
                    source: svc::GraphSource::MtxFile("data/gb.mtx".into()),
                    warm: None,
                },
            ],
            deltas: vec![SnapshotDelta {
                name: "ga".to_string(),
                adds: vec![(5, 6)],
                dels: vec![(7, 8)],
            }],
            rebuilds: 2,
        };
        let mut text = snapshot::render(&snap);
        for (name, add, x, y) in [
            ("ga", true, 10, 11),
            ("gb", false, 3, 4),
            ("ga", false, 5, 6),
            ("gb", true, 9, 9),
        ] {
            text.push_str(&snapshot::render_update_record(name, add, x, y));
            text.push('\n');
        }
        text.into_bytes()
    })
}

/// The corpus's exact bytes. Each record's CRC covers them, and journals
/// written by earlier builds must keep loading, so the encoder may never
/// change them.
const PINNED_CORPUS: &str = r#"{"kind":"header","version":3,"crc":2496352055}
{"kind":"graph","name":"ga","source":"suite","suite":"kkt_power","scale":"tiny","crc":2514380336}
{"kind":"warm","name":"ga","ny":4,"mate_x":[2,-1,0,3],"crc":1094312895}
{"kind":"graph","name":"gb","source":"mtx","path":"data/gb.mtx","crc":1984924316}
{"kind":"delta","name":"ga","adds":[5,6],"dels":[7,8],"crc":694726429}
{"kind":"rebuilds","count":2,"crc":1601110972}
{"kind":"update","name":"ga","op":"add","x":10,"y":11,"crc":3471858081}
{"kind":"update","name":"gb","op":"del","x":3,"y":4,"crc":1012567183}
{"kind":"update","name":"ga","op":"del","x":5,"y":6,"crc":2221502154}
{"kind":"update","name":"gb","op":"add","x":9,"y":9,"crc":375437236}
"#;

/// `render` of the state the corpus loads to: its updates folded into
/// per-graph deltas.
const PINNED_RECOVERED: &str = r#"{"kind":"header","version":3,"crc":2496352055}
{"kind":"graph","name":"ga","source":"suite","suite":"kkt_power","scale":"tiny","crc":2514380336}
{"kind":"warm","name":"ga","ny":4,"mate_x":[2,-1,0,3],"crc":1094312895}
{"kind":"graph","name":"gb","source":"mtx","path":"data/gb.mtx","crc":1984924316}
{"kind":"delta","name":"ga","adds":[10,11],"dels":[7,8],"crc":241829859}
{"kind":"delta","name":"gb","adds":[9,9],"dels":[3,4],"crc":3388070829}
{"kind":"rebuilds","count":2,"crc":1601110972}
"#;

#[test]
fn corpus_encoding_is_pinned() {
    assert_eq!(std::str::from_utf8(corpus()).unwrap(), PINNED_CORPUS);
    let report = load_bytes(PINNED_CORPUS.as_bytes()).unwrap();
    assert!(report.truncated.is_none(), "{:?}", report.truncated);
    assert_eq!(snapshot::render(&report.snapshot), PINNED_RECOVERED);
}

/// Loads `bytes` as `state/registry.jsonl` on a fresh simulated disk.
fn load_bytes(bytes: &[u8]) -> Result<snapshot::LoadReport, snapshot::SnapshotError> {
    let disk = SimDisk::new(SimDiskConfig {
        seed: 1,
        fail_rate_pct: 0,
        max_faults: 0,
        crash_at: None,
    });
    let path = Path::new(DIR).join(snapshot::SNAPSHOT_FILE);
    disk.preload(&path, bytes);
    snapshot::load_on(disk.as_ref(), Path::new(DIR), None)
}

/// Canonical renderings of every state a record-prefix of the good
/// journal encodes — the complete set of "real" recovery outcomes.
fn prefix_states() -> &'static BTreeSet<String> {
    static STATES: OnceLock<BTreeSet<String>> = OnceLock::new();
    STATES.get_or_init(|| {
        let bytes = corpus();
        let mut boundaries = vec![0usize];
        boundaries.extend(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, b)| **b == b'\n')
                .map(|(i, _)| i + 1),
        );
        boundaries
            .into_iter()
            .map(|n| {
                let report =
                    load_bytes(&bytes[..n]).expect("complete-record prefix must load cleanly");
                assert!(
                    report.truncated.is_none(),
                    "complete-record prefix at byte {n} reported a truncation"
                );
                snapshot::render(&report.snapshot)
            })
            .collect()
    })
}

/// Byte offset just past the header line; corruption inside the header
/// is the only region allowed to produce a typed error instead of a
/// located truncation (a header that no longer parses as version 3 is
/// a typed error).
fn header_end() -> usize {
    corpus().iter().position(|b| *b == b'\n').unwrap() + 1
}

/// Shared postcondition: a load of a corrupted journal either errors
/// (allowed only for header corruption) or recovers a real prefix
/// state; a located truncation must be repairable in place without
/// changing the recovered state.
fn check_corrupted(bytes: &[u8], corrupted_at: usize) -> Result<(), TestCaseError> {
    match load_bytes(bytes) {
        Err(_) => {
            // Typed error, no panic: acceptable, but only when the
            // header itself was hit — the CRC machinery must handle
            // everything after it.
            prop_assert!(
                corrupted_at < header_end(),
                "typed error for corruption at byte {corrupted_at}, past the header"
            );
        }
        Ok(report) => {
            let recovered = snapshot::render(&report.snapshot);
            prop_assert!(
                prefix_states().contains(&recovered),
                "recovered state is not a record-prefix of the journal:\n{recovered}"
            );
            if let Some(t) = &report.truncated {
                let disk = SimDisk::new(SimDiskConfig {
                    seed: 1,
                    fail_rate_pct: 0,
                    max_faults: 0,
                    crash_at: None,
                });
                let path = Path::new(DIR).join(snapshot::SNAPSHOT_FILE);
                disk.preload(&path, bytes);
                snapshot::truncate_at(disk.as_ref(), Path::new(DIR), t.byte_offset)
                    .expect("truncate_at the located cut");
                let re = snapshot::load_on(disk.as_ref(), Path::new(DIR), None)
                    .expect("reload after truncation");
                prop_assert!(re.truncated.is_none(), "truncation repair must not cascade");
                prop_assert_eq!(
                    snapshot::render(&re.snapshot),
                    recovered,
                    "truncation repair changed the recovered state"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    // Cutting the journal at any byte recovers a record prefix.
    #[test]
    fn truncated_journal_recovers_a_prefix(cut in 0usize..=14_000) {
        let bytes = corpus();
        let cut = cut % (bytes.len() + 1);
        check_corrupted(&bytes[..cut], cut.min(bytes.len().saturating_sub(1)))?;
    }

    // A single flipped bit anywhere recovers a record prefix, and past
    // the header it always surfaces as a located truncation — CRC32
    // catches every single-bit error.
    #[test]
    fn bit_flip_recovers_a_prefix(pos in 0usize..14_000, bit in 0u32..8) {
        let mut bytes = corpus().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1u8 << bit;
        if pos >= header_end() {
            let report = load_bytes(&bytes);
            if let Ok(r) = &report {
                prop_assert!(
                    r.truncated.is_some(),
                    "bit flip at byte {} loaded cleanly — the CRC missed it",
                    pos
                );
            }
        }
        check_corrupted(&bytes, pos)?;
    }

    // Flipping a bit in an *appended* update record never disturbs the
    // fully-saved prefix: recovery keeps at least the saved snapshot.
    #[test]
    fn flip_in_appended_tail_keeps_the_saved_snapshot(pos in 0usize..14_000, bit in 0u32..8) {
        let bytes = corpus();
        let saved_len = {
            // End of the full save = start of the first update record.
            let needle = b"\"kind\":\"update\"";
            bytes
                .windows(needle.len())
                .position(|w| w == needle)
                .map(|p| bytes[..p].iter().rposition(|b| *b == b'\n').unwrap() + 1)
                .expect("corpus has update records")
        };
        let tail_len = bytes.len() - saved_len;
        let pos = saved_len + pos % tail_len;
        let mut corrupted = bytes.to_vec();
        corrupted[pos] ^= 1u8 << bit;
        let report = load_bytes(&corrupted).expect("tail corruption must still load");
        let t = report.truncated.as_ref().expect("tail flip must be located");
        prop_assert!(
            t.byte_offset as usize >= saved_len,
            "truncation at byte {} reaches into the saved snapshot (ends at {})",
            t.byte_offset,
            saved_len
        );
        let saved = load_bytes(&bytes[..saved_len]).unwrap();
        for e in &saved.snapshot.entries {
            prop_assert!(
                report.snapshot.entries.iter().any(|r| r.name == e.name),
                "saved graph `{}` lost to a tail flip",
                &e.name
            );
        }
    }
}

/// Exhaustive (non-random) sweep of every single-byte truncation — the
/// corpus is small enough to not need sampling at all.
#[test]
fn every_truncation_point_recovers() {
    let bytes = corpus();
    for cut in 0..=bytes.len() {
        let report = load_bytes(&bytes[..cut]);
        match report {
            Err(_) => assert!(
                cut < header_end(),
                "typed error for truncation at byte {cut}, past the header"
            ),
            Ok(r) => assert!(
                prefix_states().contains(&snapshot::render(&r.snapshot)),
                "truncation at byte {cut} recovered a state the journal never held"
            ),
        }
    }
}
