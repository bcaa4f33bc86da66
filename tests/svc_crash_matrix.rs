//! Exhaustive crash-point recovery testing for the durability stack.
//!
//! A seeded save+append workload is driven through [`svc::Journal`] on a
//! [`svc::SimDisk`]. The baseline (crash-free) run counts every disk
//! operation; the matrix then re-runs the identical workload once per
//! operation index `k`, crashing the disk at `k` (every op from `k` on
//! fails, unsynced bytes are torn per the seed), takes the post-crash
//! image, and checks the three durability invariants:
//!
//! 1. **recovery never errors** — `snapshot::load_on` on the crash image
//!    always returns `Ok`, at worst with a located truncation;
//! 2. **recovered state is real** — the recovered registry equals one of
//!    the states the workload actually produced (no invented or merged
//!    state);
//! 3. **acked implies durable** — the recovered state is never older
//!    than the last state whose fsync was acknowledged before the crash.
//!
//! On top of the matrix: orphaned `registry.jsonl.tmp` sweeping, boot
//! metrics through a full server (`stale_tmp_removed`,
//! `journal_truncations`), and an end-to-end check that an `UPDATE`
//! acked under `--fsync always` survives an immediate crash.

use graft_sim::mix64;
use ms_bfs_graft::prelude::*;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use svc::snapshot;
use svc::{
    AppendOutcome, Disk, FsyncPolicy, Journal, Metrics, SimDisk, SimDiskConfig, Snapshot,
    SnapshotDelta, SnapshotEntry,
};

const DIR: &str = "sim-state";

fn suite_entry(name: &str) -> SnapshotEntry {
    SnapshotEntry {
        name: name.to_string(),
        source: svc::GraphSource::Suite {
            name: "kkt_power".to_string(),
            scale: gen::Scale::Tiny,
        },
        warm: None,
    }
}

/// The logical registry the workload is building: fixed entries plus
/// live per-graph deltas under the same cancellation algebra as the
/// server (an add cancels a pending del of the same edge and vice
/// versa — mirrors `load_v3` and `DynStore`).
/// Per-graph live delta sets: (adds, dels).
type LiveDeltas = BTreeMap<String, (BTreeSet<(u32, u32)>, BTreeSet<(u32, u32)>)>;

struct Model {
    entries: Vec<SnapshotEntry>,
    live: LiveDeltas,
}

impl Model {
    fn new() -> Self {
        Self {
            entries: vec![suite_entry("ga"), suite_entry("gb")],
            live: BTreeMap::new(),
        }
    }

    fn apply(&mut self, name: &str, add: bool, x: u32, y: u32) {
        let (adds, dels) = self.live.entry(name.to_string()).or_default();
        if add {
            if !dels.remove(&(x, y)) {
                adds.insert((x, y));
            }
        } else if !adds.remove(&(x, y)) {
            dels.insert((x, y));
        }
    }

    fn to_snapshot(&self) -> Snapshot {
        let deltas = self
            .live
            .iter()
            .filter(|(_, (adds, dels))| !adds.is_empty() || !dels.is_empty())
            .map(|(name, (adds, dels))| SnapshotDelta {
                name: name.clone(),
                adds: adds.iter().copied().collect(),
                dels: dels.iter().copied().collect(),
            })
            .collect();
        Snapshot {
            entries: self.entries.clone(),
            deltas,
            rebuilds: 0,
        }
    }

    /// Canonical rendering for state comparison: `load_v3` normalizes a
    /// recovered snapshot to sorted, non-empty deltas, so rendering the
    /// model the same way makes string equality ⇔ logical equality.
    fn canonical(&self) -> String {
        snapshot::render(&self.to_snapshot())
    }
}

/// What one (possibly crashed) run of the workload produced.
struct RunResult {
    /// Canonical renderings of every state the durable medium could
    /// hold: `states[0]` is "no snapshot yet"; a state is pushed for
    /// every mutation *attempted* against the disk (a failed append or
    /// save may still have reached the live namespace — torn writes can
    /// surface it after the crash — so candidates count, but only fully
    /// acknowledged operations advance `acked`).
    states: Vec<String>,
    /// Index into `states` of the last state whose durability was
    /// acknowledged (fsync completed) before the run stopped.
    acked: usize,
    /// The run finished without hitting the crash point.
    completed: bool,
}

const N_UPDATES: usize = 14;

/// Drives the seeded workload: initial full save, `N_UPDATES` appended
/// updates with a mid-workload full save, and a final (drain-style)
/// full save. Stops at the first disk error, as a crashed process
/// would.
fn run_workload(disk: &Arc<SimDisk>, policy: FsyncPolicy, seed: u64) -> RunResult {
    let journal = Journal::new(
        Arc::clone(disk) as Arc<dyn Disk>,
        PathBuf::from(DIR),
        policy,
        Arc::new(Metrics::new()),
    );
    let mut model = Model::new();
    let mut states = vec![snapshot::render(&Snapshot::default())];
    let mut acked = 0usize;

    fn note(states: &mut Vec<String>, s: String) -> usize {
        if states.last() != Some(&s) {
            states.push(s);
        }
        states.len() - 1
    }

    // Full save: on success the current state is acked durable; on
    // failure it stays a candidate (the rename may have landed with the
    // directory fsync still pending, so the crash image can legally
    // show either side).
    macro_rules! save {
        () => {{
            let snap = model.to_snapshot();
            match journal.save_full(&snap, None) {
                Ok(()) => {
                    let idx = note(&mut states, model.canonical());
                    acked = idx;
                    true
                }
                Err(_) => {
                    note(&mut states, model.canonical());
                    false
                }
            }
        }};
    }

    if !save!() {
        return RunResult {
            states,
            acked,
            completed: false,
        };
    }
    for i in 0..N_UPDATES {
        if i == N_UPDATES / 2 && !save!() {
            return RunResult {
                states,
                acked,
                completed: false,
            };
        }
        let r = mix64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let name = if r & 1 == 0 { "ga" } else { "gb" };
        let add = r % 4 != 3;
        let x = ((r >> 8) % 6) as u32;
        let y = ((r >> 16) % 6) as u32;
        match journal.try_append(name, add, x, y) {
            Ok(AppendOutcome::Appended) => {
                model.apply(name, add, x, y);
                let idx = note(&mut states, model.canonical());
                // Only `always` acks each append's durability; under
                // `interval`/`drain` the record rides until a save.
                if matches!(policy, FsyncPolicy::Always) {
                    acked = idx;
                }
            }
            Ok(AppendOutcome::NeedsRewrite) => {
                model.apply(name, add, x, y);
                if !save!() {
                    return RunResult {
                        states,
                        acked,
                        completed: false,
                    };
                }
            }
            Err(_) => {
                // The record may have hit the live file before the
                // fsync failed: candidate state, not acked.
                model.apply(name, add, x, y);
                note(&mut states, model.canonical());
                return RunResult {
                    states,
                    acked,
                    completed: false,
                };
            }
        }
    }
    let completed = save!();
    RunResult {
        states,
        acked,
        completed,
    }
}

fn clean_disk(seed: u64, crash_at: Option<u64>) -> Arc<SimDisk> {
    SimDisk::new(SimDiskConfig {
        seed,
        fail_rate_pct: 0,
        max_faults: 0,
        crash_at,
    })
}

/// The exhaustive matrix: every crash point of the seeded workload,
/// checked against the three invariants, plus truncation repair and a
/// post-recovery save/load round trip on the crash image.
fn crash_matrix(policy: FsyncPolicy, seed: u64) {
    // Baseline: crash-free, counts the ops and proves the enumeration
    // below actually lands inside every stage of the write path.
    let disk = clean_disk(seed, None);
    let base = run_workload(&disk, policy, seed);
    assert!(base.completed, "baseline run must not fail");
    let total = disk.op_count();
    let trace = disk.op_trace();
    for kind in [
        "create_dir",
        "create",
        "write",
        "sync_file",
        "rename",
        "sync_dir",
        "open_append",
    ] {
        assert!(
            trace.contains(&kind),
            "baseline workload never performed `{kind}` — matrix would not cover it"
        );
    }
    let image = disk.crash();
    let report =
        snapshot::load_on(image.as_ref(), Path::new(DIR), None).expect("clean image must load");
    assert!(report.truncated.is_none(), "clean image must not truncate");
    assert_eq!(
        snapshot::render(&report.snapshot),
        *base.states.last().unwrap(),
        "clean image must recover the final state"
    );

    for k in 0..=total {
        let disk = clean_disk(seed, Some(k));
        let run = run_workload(&disk, policy, seed);
        let image = disk.crash();

        // Invariant 1: recovery never errors.
        let report = snapshot::load_on(image.as_ref(), Path::new(DIR), None).unwrap_or_else(|e| {
            panic!("crash point {k}/{total} (seed {seed}, {policy}): recovery errored: {e}")
        });
        let recovered = snapshot::render(&report.snapshot);

        // Invariant 2: the recovered registry is a state the workload
        // actually produced (the latest matching one, since
        // cancellation can revisit an earlier state).
        let pos = run
            .states
            .iter()
            .rposition(|s| *s == recovered)
            .unwrap_or_else(|| {
                panic!(
                    "crash point {k}/{total} (seed {seed}, {policy}): recovered state not in \
                     history\nrecovered:\n{recovered}"
                )
            });

        // Invariant 3: anything acked after an fsync is never lost.
        assert!(
            pos >= run.acked,
            "crash point {k}/{total} (seed {seed}, {policy}): recovered state #{pos} is older \
             than acked state #{}",
            run.acked
        );

        // A located truncation is repairable: cutting the file there
        // reloads clean with the identical state.
        if let Some(t) = &report.truncated {
            snapshot::truncate_at(image.as_ref(), Path::new(DIR), t.byte_offset)
                .expect("truncate_at on crash image");
            let re = snapshot::load_on(image.as_ref(), Path::new(DIR), None)
                .expect("reload after truncation");
            assert!(
                re.truncated.is_none(),
                "crash point {k}: truncation must not cascade"
            );
            assert_eq!(
                snapshot::render(&re.snapshot),
                recovered,
                "crash point {k}: truncation repair changed the recovered state"
            );
        }

        // Boot would sweep stale tmp files and rewrite: both must work
        // on every crash image.
        snapshot::cleanup_stale_tmp(image.as_ref(), Path::new(DIR)).expect("tmp sweep");
        snapshot::save_on(image.as_ref(), Path::new(DIR), &report.snapshot, None)
            .expect("post-recovery save");
        let re =
            snapshot::load_on(image.as_ref(), Path::new(DIR), None).expect("post-recovery reload");
        assert_eq!(
            snapshot::render(&re.snapshot),
            recovered,
            "crash point {k}: post-recovery save/load round trip drifted"
        );
    }
}

#[test]
fn crash_matrix_fsync_always() {
    for seed in [1, 42, 0xC0FFEE] {
        crash_matrix(FsyncPolicy::Always, seed);
    }
}

#[test]
fn crash_matrix_fsync_drain() {
    for seed in [7, 0xBEEF] {
        crash_matrix(FsyncPolicy::Drain, seed);
    }
}

#[test]
fn crash_matrix_fsync_interval() {
    // At the journal layer `interval` acks like `drain` (the periodic
    // fsync lives in the server loop); the matrix proves the same
    // invariants hold.
    crash_matrix(FsyncPolicy::Interval(Duration::from_millis(50)), 3);
}

/// Crashing between the tmp fsync and the rename leaves a durable
/// orphaned `registry.jsonl.tmp`; the boot sweep removes it.
#[test]
fn orphaned_tmp_is_swept() {
    let seed = 11;
    let disk = clean_disk(seed, None);
    let base = run_workload(&disk, FsyncPolicy::Always, seed);
    assert!(base.completed);
    let rename_at = disk
        .op_trace()
        .iter()
        .position(|op| *op == "rename")
        .expect("workload renames") as u64;

    let disk = clean_disk(seed, Some(rename_at));
    let _ = run_workload(&disk, FsyncPolicy::Always, seed);
    let image = disk.crash();
    let tmp = Path::new(DIR).join("registry.jsonl.tmp");
    assert!(
        image.dump(&tmp).is_some(),
        "tmp file must be durable after the pre-rename crash"
    );
    let removed =
        snapshot::cleanup_stale_tmp(image.as_ref(), Path::new(DIR)).expect("sweep stale tmp");
    assert_eq!(removed, vec!["registry.jsonl.tmp".to_string()]);
    assert!(image.dump(&tmp).is_none(), "sweep must remove the tmp file");
    // The sweep never touches the real snapshot.
    snapshot::load_on(image.as_ref(), Path::new(DIR), None).expect("load after sweep");
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to service");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn req(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("send request");
        self.writer.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        assert!(!reply.is_empty(), "server closed the connection");
        reply.trim_end().to_string()
    }
}

fn serve_cfg() -> svc::ServeConfig {
    svc::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: Some(PathBuf::from(DIR)),
        fsync: FsyncPolicy::Always,
        ..svc::ServeConfig::default()
    }
}

fn spawn_on(disk: Arc<SimDisk>) -> (String, svc::ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = svc::Server::bind_with_disk(
        &serve_cfg(),
        Arc::new(svc::TcpTransport),
        Arc::new(svc::WallClock),
        disk as Arc<dyn Disk>,
    )
    .expect("bind server on sim disk");
    let addr = server.local_addr().unwrap().to_string();
    let shutdown = server.shutdown_handle().unwrap();
    let handle = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, shutdown, handle)
}

/// Boot on a dirty image: an orphaned tmp and a torn journal tail must
/// be swept/truncated with the `stale_tmp_removed` and
/// `journal_truncations` metrics showing it, and the registry restored.
#[test]
fn server_boot_sweeps_and_truncates() {
    let disk = clean_disk(21, None);
    let snap = Snapshot::from_entries(vec![suite_entry("ga")]);
    let mut good = snapshot::render(&snap);
    good.push_str(&snapshot::render_update_record("ga", true, 2, 3));
    good.push('\n');
    // Torn tail: the first half of a sealed record, as a crash would
    // leave it.
    let torn = snapshot::render_update_record("ga", true, 4, 5);
    good.push_str(&torn[..torn.len() / 2]);
    disk.preload(
        &Path::new(DIR).join(snapshot::SNAPSHOT_FILE),
        good.as_bytes(),
    );
    disk.preload(
        &Path::new(DIR).join("registry.jsonl.tmp"),
        b"half-written junk from a crashed save",
    );

    let (addr, _shutdown, handle) = spawn_on(Arc::clone(&disk));
    let mut c = Client::connect(&addr);
    let stats = c.req("STATS");
    assert!(
        stats.contains("stale_tmp_removed=1"),
        "boot must sweep the orphaned tmp: {stats}"
    );
    assert!(
        stats.contains("journal_truncations=1"),
        "boot must truncate the torn tail: {stats}"
    );
    // The surviving prefix (entry + one update) was restored.
    let reply = c.req("UPDATE ga DEL 2 3");
    assert!(
        reply.starts_with("OK"),
        "restored graph must accept updates: {reply}"
    );
    assert_eq!(c.req("SHUTDOWN"), "OK bye");
    handle.join().unwrap();
}

/// End-to-end ack-implies-durable: under `--fsync always` an `UPDATE`
/// answered `OK` must survive a crash taken immediately after the ack,
/// with no drain and no periodic snapshot in between.
#[test]
fn acked_update_survives_immediate_crash() {
    let disk = clean_disk(31, None);
    let (addr, _shutdown, handle) = spawn_on(Arc::clone(&disk));
    let mut c = Client::connect(&addr);
    assert!(c.req("GEN ga kkt_power:tiny").starts_with("OK"));
    // An ADD of an edge already in the generated graph is a noop (not
    // journaled, outcome=noop in the ack), so probe until one inserts.
    let edge = (0..8u32)
        .map(|i| (1 + i, 1400 + i))
        .find(|&(x, y)| {
            let reply = c.req(&format!("UPDATE ga ADD {x} {y}"));
            assert!(reply.starts_with("OK"), "update must be acked: {reply}");
            !reply.contains("outcome=noop")
        })
        .expect("some probe edge must be new to the graph");

    // Crash NOW: the ack above must already be on "disk".
    let image = disk.crash();
    let report = snapshot::load_on(image.as_ref(), Path::new(DIR), None)
        .expect("crash image after acked UPDATE must load");
    assert!(
        report.snapshot.entries.iter().any(|e| e.name == "ga"),
        "graph registration must be durable before the UPDATE ack"
    );
    let delta = report
        .snapshot
        .deltas
        .iter()
        .find(|d| d.name == "ga")
        .expect("acked update's delta must be durable");
    assert!(
        delta.adds.contains(&edge),
        "acked edge {edge:?} must be in the durable delta: {delta:?}"
    );
    let stats = c.req("STATS");
    assert!(
        stats.contains("fsync_count="),
        "STATS must expose fsync_count: {stats}"
    );
    assert!(
        !stats.contains("fsync_count=0"),
        "fsync policy `always` must have fsynced before the ack: {stats}"
    );
    assert_eq!(c.req("SHUTDOWN"), "OK bye");
    handle.join().unwrap();
}

/// A restored delta that no longer replays as recorded must not undo a
/// later acked update. The journal below adds `(0, 0)`, which
/// kkt_power:tiny already has (as when an `.mtx` source gained the edge
/// between runs), so its replay inserts nothing; an acked `DEL 0 0` must
/// then be durable as a delete, both in the crash image (the adopted file
/// plus whatever the ack wrote) and in the file the drain leaves.
#[test]
fn acked_delete_survives_a_stale_restored_add() {
    let g = gen::suite::by_name("kkt_power")
        .unwrap()
        .build(gen::Scale::Tiny);
    assert!(g.has_edge(0, 0), "the source must already have the edge");
    let disk = clean_disk(41, None);
    let stale = Snapshot {
        entries: vec![suite_entry("g")],
        deltas: vec![SnapshotDelta {
            name: "g".to_string(),
            adds: vec![(0, 0)],
            dels: vec![],
        }],
        rebuilds: 0,
    };
    disk.preload(
        &Path::new(DIR).join(snapshot::SNAPSHOT_FILE),
        snapshot::render(&stale).as_bytes(),
    );
    let (addr, _shutdown, handle) = spawn_on(Arc::clone(&disk));
    let mut c = Client::connect(&addr);
    let reply = c.req("UPDATE g DEL 0 0");
    assert!(reply.starts_with("OK"), "the delete must be acked: {reply}");
    let crashed = disk.crash();
    assert_eq!(c.req("SHUTDOWN"), "OK bye");
    handle.join().unwrap();
    for (what, image) in [("crash image", crashed), ("drained file", disk.crash())] {
        let report = snapshot::load_on(image.as_ref(), Path::new(DIR), None)
            .unwrap_or_else(|e| panic!("{what} must load: {e}"));
        let delta = report.snapshot.deltas.iter().find(|d| d.name == "g");
        assert!(
            delta.is_some_and(|d| d.dels.contains(&(0, 0)) && d.adds.is_empty()),
            "{what}: the acked DEL 0 0 must be durable: {delta:?}"
        );
    }
}
