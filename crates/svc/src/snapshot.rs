//! Crash-safe registry snapshots.
//!
//! `serve --state DIR` persists the service's durable state — every
//! registered graph's *source* plus the last warm-start matching — to
//! `DIR/registry.jsonl`, and restores it on boot so a restarted server
//! answers its first `SOLVE` of a known graph warm.
//!
//! What is deliberately **not** persisted: the materialized CSR graphs
//! (re-derivable from their sources, and large) and any in-flight jobs
//! (the drain protocol finishes or rejects them before the final save).
//!
//! ## Format
//!
//! One flat JSON object per line, written and parsed by
//! [`graft_core::json`] (the workspace has no serde dependency), which
//! keeps the format diffable. Every line is sealed with a trailing
//! `"crc"` field: the CRC32 (IEEE) of the line's bytes up to (not
//! including) the `,"crc"` suffix.
//!
//! ```text
//! {"kind":"header","version":3,"crc":2496352055}
//! {"kind":"graph","name":"g","source":"suite","suite":"kkt_power","scale":"tiny","crc":N}
//! {"kind":"graph","name":"m","source":"mtx","path":"data/m.mtx","crc":N}
//! {"kind":"warm","name":"g","ny":1500,"mate_x":[3,-1,7],"crc":N}
//! {"kind":"delta","name":"g","adds":[0,5,3,1],"dels":[2,2],"crc":N}
//! {"kind":"rebuilds","count":4,"crc":N}
//! {"kind":"update","name":"g","op":"add","x":0,"y":5,"crc":N}
//! ```
//!
//! `mate_x[x]` is the matched Y partner or `-1`; `ny` sizes the rebuilt
//! `mate_y` side. A `warm` line always refers to a `graph` line earlier
//! in the file. `delta` lines record a graph's pending edge updates
//! relative to its registered source as flat `[x0,y0,x1,y1,...]` pairs
//! (`adds` inserted, `dels` deleted), and one `rebuilds` line carries the
//! service-wide overlay-compaction counter. A full save writes those
//! kinds; between full rewrites each accepted `UPDATE` is *appended* as
//! an `update` record. Updates replay with the same add/del cancellation
//! semantics as the server's live journal, so append-then-load equals the
//! state the server acked.
//!
//! The journal has one grammar. A first record that is not a parseable
//! header, or a header of any version other than 3, is a
//! [`SnapshotError::Corrupt`] at that line. After the header, recovery
//! **truncates at the first bad record** (CRC mismatch, unparseable line,
//! unknown kind, semantic error) and returns everything before it; a
//! header that fails its own CRC truncates to nothing.
//!
//! ## Crash safety
//!
//! All I/O goes through the [`Disk`] trait ([`RealDisk`] in production,
//! `SimDisk` under simulation). Saves write `registry.jsonl.tmp`, fsync
//! it, `rename(2)` over the live file, then fsync the directory — a
//! crash at any point leaves either the old or the new snapshot, never
//! a torn file. Appends may tear at a crash; v3's per-record CRC turns
//! any torn or bit-flipped tail into a located truncation instead of a
//! wrong registry. `tests/svc_crash_matrix.rs` enumerates every crash
//! point of a save+append workload and checks recovery at each one.

use crate::error::SvcError;
use crate::faults::{FaultPlan, FaultSite};
use crate::registry::GraphSource;
use graft_core::json::{self, Object, Writer};
use graft_core::Matching;
use graft_gen::Scale;
use graft_graph::{VertexId, NONE};
use graft_sim::{Disk, RealDisk};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u64 = 3;

/// File name inside the state directory.
pub const SNAPSHOT_FILE: &str = "registry.jsonl";

/// CRC32 (IEEE 802.3, reflected 0xEDB88320) of `bytes` — the checksum
/// sealing every v3 record.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Seals one flat-JSON record body (`{...}`, no newline) with its
/// `"crc"` field: pops the closing brace and appends
/// `,"crc":<crc32 of everything before it>}`.
pub fn seal_record(body: &str) -> String {
    debug_assert!(body.ends_with('}'), "record body must be a JSON object");
    let prefix = &body[..body.len() - 1];
    format!("{prefix},\"crc\":{}}}", crc32(prefix.as_bytes()))
}

/// Checks a sealed v3 line: locates the trailing `,"crc":N}` suffix,
/// recomputes the CRC of everything before it, and compares.
fn verify_record(line: &str) -> Result<(), String> {
    let at = line.rfind(",\"crc\":").ok_or("record has no crc field")?;
    let prefix = &line[..at];
    let digits = line[at + 7..]
        .strip_suffix('}')
        .ok_or("malformed crc suffix")?;
    let stored: u32 = digits
        .parse()
        .map_err(|_| format!("bad crc value `{digits}`"))?;
    let actual = crc32(prefix.as_bytes());
    if stored != actual {
        return Err(format!("crc mismatch: stored {stored}, computed {actual}"));
    }
    Ok(())
}

/// Everything a snapshot holds: the registry entries plus the dynamic
/// per-graph deltas and the service-wide rebuild counter.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Registered graphs (sources + warm matchings).
    pub entries: Vec<SnapshotEntry>,
    /// Pending dynamic edge updates per graph, relative to the source.
    pub deltas: Vec<SnapshotDelta>,
    /// Overlay compactions performed so far (restored into `STATS`).
    pub rebuilds: u64,
}

impl Snapshot {
    /// A snapshot holding only registry entries (no dynamic state).
    pub fn from_entries(entries: Vec<SnapshotEntry>) -> Self {
        Self {
            entries,
            ..Self::default()
        }
    }
}

/// One graph's pending dynamic updates: the edges inserted into and
/// deleted from its registered source since the last compaction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotDelta {
    /// Registry name (matches a `graph` line).
    pub name: String,
    /// Edges added relative to the source.
    pub adds: Vec<(u32, u32)>,
    /// Edges deleted relative to the source.
    pub dels: Vec<(u32, u32)>,
}

/// One graph's durable state: its source and the last solve's matching.
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    /// Registry name.
    pub name: String,
    /// Where the graph comes from (enough to re-materialize it).
    pub source: GraphSource,
    /// Warm-start matching of the last completed solve, if any.
    pub warm: Option<WarmStart>,
}

/// A matching flattened for persistence: `mate_x[x]` is the partner or
/// `-1`, and `ny` sizes the Y side when rebuilding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmStart {
    /// `|Y|` of the graph the matching belongs to.
    pub ny: usize,
    /// Per-X partner, `-1` for unmatched.
    pub mate_x: Vec<i64>,
}

impl WarmStart {
    /// Flattens a live matching.
    pub fn from_matching(m: &Matching) -> Self {
        let mate_x = m
            .mates_x()
            .iter()
            .map(|&y| if y == NONE { -1 } else { y as i64 })
            .collect();
        Self {
            ny: m.mates_y().len(),
            mate_x,
        }
    }

    /// Rebuilds the matching, re-deriving `mate_y` and re-validating the
    /// pairing (a tampered or stale snapshot must not smuggle in an
    /// inconsistent matching).
    pub fn to_matching(&self) -> Result<Matching, SvcError> {
        let mut mate_x = vec![NONE; self.mate_x.len()];
        let mut mate_y = vec![NONE; self.ny];
        for (x, &y) in self.mate_x.iter().enumerate() {
            if y < 0 {
                continue;
            }
            let y = y as usize;
            if y >= self.ny {
                return Err(SvcError::Load(format!(
                    "snapshot warm start: mate_x[{x}]={y} out of range (ny={})",
                    self.ny
                )));
            }
            mate_x[x] = y as VertexId;
            mate_y[y] = x as VertexId;
        }
        Matching::try_from_mates(mate_x, mate_y)
            .map_err(|e| SvcError::Load(format!("snapshot warm start invalid: {e}")))
    }
}

/// The record bodies of one entry: its `graph` line, then its `warm`
/// line if it has a warm start.
fn entry_bodies(entry: &SnapshotEntry, out: &mut Vec<String>) {
    let graph = Writer::new().str("kind", "graph").str("name", &entry.name);
    out.push(
        match &entry.source {
            GraphSource::MtxFile(path) => graph
                .str("source", "mtx")
                .str("path", &path.display().to_string()),
            GraphSource::Suite { name, scale } => graph
                .str("source", "suite")
                .str("suite", name)
                .str("scale", scale.name()),
        }
        .finish(),
    );
    if let Some(warm) = &entry.warm {
        out.push(
            Writer::new()
                .str("kind", "warm")
                .str("name", &entry.name)
                .u64("ny", warm.ny as u64)
                .ints("mate_x", warm.mate_x.iter().copied())
                .finish(),
        );
    }
}

/// Edge pairs flattened to `x0,y0,x1,y1,...`.
fn flat_pairs(pairs: &[(u32, u32)]) -> impl Iterator<Item = u32> + '_ {
    pairs.iter().flat_map(|&(x, y)| [x, y])
}

/// The unsealed record bodies of `snap`, in file order.
fn record_bodies(snap: &Snapshot) -> Vec<String> {
    let mut bodies = vec![Writer::new()
        .str("kind", "header")
        .u64("version", SNAPSHOT_VERSION)
        .finish()];
    for e in &snap.entries {
        entry_bodies(e, &mut bodies);
    }
    for d in &snap.deltas {
        if d.adds.is_empty() && d.dels.is_empty() {
            continue;
        }
        bodies.push(
            Writer::new()
                .str("kind", "delta")
                .str("name", &d.name)
                .ints("adds", flat_pairs(&d.adds))
                .ints("dels", flat_pairs(&d.dels))
                .finish(),
        );
    }
    if snap.rebuilds > 0 {
        bodies.push(
            Writer::new()
                .str("kind", "rebuilds")
                .u64("count", snap.rebuilds)
                .finish(),
        );
    }
    bodies
}

/// Serializes a snapshot to its sealed v3 text form (exposed for tests
/// and for the crash-matrix driver's canonical-state comparison).
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    for body in record_bodies(snap) {
        out.push_str(&seal_record(&body));
        out.push('\n');
    }
    out
}

/// One sealed v3 `update` record (no trailing newline): a single
/// accepted edge update, appended to the live journal by the fsync
/// policy machinery.
pub fn render_update_record(name: &str, add: bool, x: u32, y: u32) -> String {
    seal_record(
        &Writer::new()
            .str("kind", "update")
            .str("name", name)
            .str("op", if add { "add" } else { "del" })
            .u64("x", x.into())
            .u64("y", y.into())
            .finish(),
    )
}

/// Atomically writes `snap` to `dir/registry.jsonl` on `disk` (tmp +
/// fsync + rename + directory fsync). `faults` injects at
/// [`FaultSite::SnapshotSave`].
///
/// Each record is written as its own disk operation so crash-point
/// enumeration can land *inside* the tmp file, not just between whole
/// saves.
pub fn save_on(
    disk: &dyn Disk,
    dir: &Path,
    snap: &Snapshot,
    faults: Option<&FaultPlan>,
) -> std::io::Result<()> {
    if let Some(plan) = faults {
        plan.maybe_fail_io(FaultSite::SnapshotSave)?;
    }
    disk.create_dir_all(dir)?;
    let final_path = dir.join(SNAPSHOT_FILE);
    let tmp_path = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    {
        let mut f = disk.create(&tmp_path)?;
        for body in record_bodies(snap) {
            let mut line = seal_record(&body);
            line.push('\n');
            f.write_all(line.as_bytes())?;
        }
        f.flush()?;
        // fsync before rename: the rename must never become visible
        // ahead of the bytes it points at.
        f.sync_all()?;
    }
    disk.rename(&tmp_path, &final_path)?;
    // Persist the directory entry too: without this the rename itself
    // can be lost at a crash, and a save acked to a client would
    // silently roll back — the exact invariant the crash matrix checks.
    disk.sync_dir(dir)?;
    Ok(())
}

/// [`save_on`] against the real filesystem.
pub fn save(dir: &Path, snap: &Snapshot, faults: Option<&FaultPlan>) -> std::io::Result<()> {
    save_on(&RealDisk, dir, snap, faults)
}

/// Errors from [`load`]: I/O vs. corrupt-content, so the caller can
/// distinguish "no snapshot" from "snapshot there but unusable".
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading the file failed.
    Io(std::io::Error),
    /// A line failed to parse; `line` is 1-based.
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o: {e}"),
            SnapshotError::Corrupt { line, message } => {
                write!(f, "snapshot corrupt at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

fn corrupt(line: usize, message: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt {
        line,
        message: message.into(),
    }
}

/// Decodes the flat `[x0,y0,x1,y1,...]` array `key` into edge pairs.
fn pairs(o: &Object, key: &str) -> Result<BTreeSet<(u32, u32)>, String> {
    let ints = o.ints(key)?;
    let pair = |c: &[i64]| Some((u32::try_from(c[0]).ok()?, u32::try_from(c[1]).ok()?));
    (ints.len() % 2 == 0)
        .then(|| ints.chunks_exact(2).map(pair).collect())
        .flatten()
        .ok_or_else(|| format!("`{key}` must hold u32 x,y pairs"))
}

fn u32_field(o: &Object, key: &str) -> Result<u32, String> {
    u32::try_from(o.u64(key)?).map_err(|_| format!("`{key}` must be a u32"))
}

/// Where and why a v3 load stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Truncation {
    /// 1-based line number of the first bad record.
    pub line: usize,
    /// Byte offset of that line's start — pass to [`truncate_at`] to
    /// physically discard the bad tail.
    pub byte_offset: u64,
    /// What was wrong with the record.
    pub message: String,
}

/// Everything [`load_on`] learned: the recovered snapshot plus the
/// provenance the boot path needs to decide whether to adopt the file
/// for appends or rewrite it.
#[derive(Debug)]
pub struct LoadReport {
    /// The recovered state (a prefix of the file if `truncated`).
    pub snapshot: Snapshot,
    /// Header version, `None` if the file was missing or empty.
    pub version: Option<u64>,
    /// Whether the journal file existed at all.
    pub existed: bool,
    /// Set when a v3 load stopped at the first bad record.
    pub truncated: Option<Truncation>,
}

/// One raw line of the journal with its position.
struct RawLine<'a> {
    lineno: usize,
    offset: usize,
    bytes: &'a [u8],
}

fn split_lines(bytes: &[u8]) -> Vec<RawLine<'_>> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut lineno = 0usize;
    while start <= bytes.len() {
        let end = bytes[start..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|p| start + p)
            .unwrap_or(bytes.len());
        lineno += 1;
        out.push(RawLine {
            lineno,
            offset: start,
            bytes: &bytes[start..end],
        });
        if end == bytes.len() {
            break;
        }
        start = end + 1;
    }
    out
}

fn is_blank(bytes: &[u8]) -> bool {
    bytes.iter().all(|b| b.is_ascii_whitespace())
}

/// Folds one accepted edge update into a graph's pending delta: an
/// insert cancels a pending delete of the same edge and vice versa,
/// instead of recording both. The server's live journal and the `update`
/// records of a load both fold through it, so append-then-load equals the
/// state the server acked.
pub(crate) fn fold_update(
    adds: &mut BTreeSet<(u32, u32)>,
    dels: &mut BTreeSet<(u32, u32)>,
    add: bool,
    edge: (u32, u32),
) {
    let (undo, record) = if add { (dels, adds) } else { (adds, dels) };
    if !undo.remove(&edge) {
        record.insert(edge);
    }
}

/// Per-graph live delta sets during a v3 replay: (adds, dels).
type LiveDeltas = BTreeMap<String, (BTreeSet<(u32, u32)>, BTreeSet<(u32, u32)>)>;

/// Replays the records from the header on: verify each record's CRC,
/// parse it, apply it strictly; the first failure of any kind truncates
/// the load there.
fn load_v3(lines: &[RawLine<'_>], header_idx: usize) -> LoadReport {
    let mut entries: Vec<SnapshotEntry> = Vec::new();
    let mut live: LiveDeltas = BTreeMap::new();
    let mut rebuilds = 0u64;
    let mut truncated = None;

    for raw in &lines[header_idx..] {
        if is_blank(raw.bytes) {
            continue;
        }
        let bad = |message: String| Truncation {
            line: raw.lineno,
            byte_offset: raw.offset as u64,
            message,
        };
        let step = (|| -> Result<(), String> {
            let line =
                std::str::from_utf8(raw.bytes).map_err(|_| "record is not UTF-8".to_string())?;
            verify_record(line)?;
            let o = json::parse(line)?;
            match o.str("kind")? {
                "header" => {
                    if raw.lineno != lines[header_idx].lineno {
                        return Err("header record in mid-file".into());
                    }
                }
                "graph" => {
                    let name = o.str("name")?.to_string();
                    let source = match o.str("source")? {
                        "mtx" => GraphSource::MtxFile(PathBuf::from(o.str("path")?)),
                        "suite" => {
                            let suite = o.str("suite")?.to_string();
                            let scale_name = o.str("scale")?;
                            let scale = Scale::parse(scale_name)
                                .ok_or_else(|| format!("unknown scale `{scale_name}`"))?;
                            GraphSource::Suite { name: suite, scale }
                        }
                        other => return Err(format!("unknown source kind `{other}`")),
                    };
                    entries.push(SnapshotEntry {
                        name,
                        source,
                        warm: None,
                    });
                }
                "warm" => {
                    let name = o.str("name")?;
                    let ny = usize::try_from(o.u64("ny")?).map_err(|_| "`ny` must fit a usize")?;
                    let mate_x = o.ints("mate_x")?.to_vec();
                    let entry = entries
                        .iter_mut()
                        .find(|e| e.name == name)
                        .ok_or_else(|| format!("warm record for unknown graph `{name}`"))?;
                    entry.warm = Some(WarmStart { ny, mate_x });
                }
                "delta" => {
                    let name = o.str("name")?;
                    if !entries.iter().any(|e| e.name == name) {
                        return Err(format!("delta record for unknown graph `{name}`"));
                    }
                    live.insert(name.to_string(), (pairs(&o, "adds")?, pairs(&o, "dels")?));
                }
                "update" => {
                    let name = o.str("name")?;
                    if !entries.iter().any(|e| e.name == name) {
                        return Err(format!("update record for unknown graph `{name}`"));
                    }
                    let add = match o.str("op")? {
                        "add" => true,
                        "del" => false,
                        other => return Err(format!("unknown update op `{other}`")),
                    };
                    let edge = (u32_field(&o, "x")?, u32_field(&o, "y")?);
                    let (adds, dels) = live.entry(name.to_string()).or_default();
                    fold_update(adds, dels, add, edge);
                }
                "rebuilds" => rebuilds = o.u64("count")?,
                other => return Err(format!("unknown record kind `{other}`")),
            }
            Ok(())
        })();
        if let Err(message) = step {
            truncated = Some(bad(message));
            break;
        }
    }

    let deltas = live
        .into_iter()
        .filter(|(_, (adds, dels))| !adds.is_empty() || !dels.is_empty())
        .map(|(name, (adds, dels))| SnapshotDelta {
            name,
            adds: adds.into_iter().collect(),
            dels: dels.into_iter().collect(),
        })
        .collect();

    LoadReport {
        snapshot: Snapshot {
            entries,
            deltas,
            rebuilds,
        },
        version: Some(3),
        existed: true,
        truncated,
    }
}

/// Loads `dir/registry.jsonl` from `disk`. A missing file is an empty
/// snapshot (the cold-start case), not an error. A file whose first
/// record is not a version-3 header is [`SnapshotError::Corrupt`]; after
/// the header, a bad record loads as the prefix before it
/// ([`LoadReport::truncated`] locates the cut). `faults` injects at
/// [`FaultSite::SnapshotLoad`].
pub fn load_on(
    disk: &dyn Disk,
    dir: &Path,
    faults: Option<&FaultPlan>,
) -> Result<LoadReport, SnapshotError> {
    if let Some(plan) = faults {
        plan.maybe_fail_io(FaultSite::SnapshotLoad)
            .map_err(SnapshotError::Io)?;
    }
    let path = dir.join(SNAPSHOT_FILE);
    let bytes = match disk.read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(LoadReport {
                snapshot: Snapshot::default(),
                version: None,
                existed: false,
                truncated: None,
            })
        }
        Err(e) => return Err(SnapshotError::Io(e)),
    };
    let lines = split_lines(&bytes);
    let Some(first_idx) = lines.iter().position(|l| !is_blank(l.bytes)) else {
        // Empty (or whitespace-only) file: a valid journal of nothing.
        return Ok(LoadReport {
            snapshot: Snapshot::default(),
            version: None,
            existed: true,
            truncated: None,
        });
    };
    let first = &lines[first_idx];
    let header = std::str::from_utf8(first.bytes)
        .map_err(|_| corrupt(first.lineno, "record is not UTF-8"))?;
    let version = json::parse(header)
        .and_then(|o| match o.str("kind")? {
            "header" => o.u64("version"),
            other => Err(format!("first record is `{other}`, not a header")),
        })
        .map_err(|m| corrupt(first.lineno, m))?;
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(
            first.lineno,
            format!("unsupported version {version}"),
        ));
    }
    if verify_record(header).is_err() {
        // A header that fails its own CRC: the whole file is
        // untrustworthy — truncate to nothing.
        return Ok(LoadReport {
            snapshot: Snapshot::default(),
            version: Some(SNAPSHOT_VERSION),
            existed: true,
            truncated: Some(Truncation {
                line: first.lineno,
                byte_offset: first.offset as u64,
                message: "header record failed its crc".into(),
            }),
        });
    }
    Ok(load_v3(&lines, first_idx))
}

/// [`load_on`] against the real filesystem, reduced to the snapshot, for
/// callers that don't manage the journal.
pub fn load(dir: &Path, faults: Option<&FaultPlan>) -> Result<Snapshot, SnapshotError> {
    load_on(&RealDisk, dir, faults).map(|r| r.snapshot)
}

/// Physically cuts `dir/registry.jsonl` at `byte_offset`, discarding a
/// tail that [`load_on`] reported as corrupt.
pub fn truncate_at(disk: &dyn Disk, dir: &Path, byte_offset: u64) -> std::io::Result<()> {
    disk.truncate(&dir.join(SNAPSHOT_FILE), byte_offset)
}

/// Removes orphaned `*.tmp` files from the state directory (a crash
/// between tmp create and rename leaves one behind) and fsyncs the
/// directory so the removal sticks. Returns the names removed; a
/// missing directory is an empty result, not an error.
pub fn cleanup_stale_tmp(disk: &dyn Disk, dir: &Path) -> std::io::Result<Vec<String>> {
    let names = match disk.list_dir(dir) {
        Ok(n) => n,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut removed = Vec::new();
    for name in names {
        if name.ends_with(".tmp") {
            disk.remove_file(&dir.join(&name))?;
            removed.push(name);
        }
    }
    if !removed.is_empty() {
        let _ = disk.sync_dir(dir);
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn sample_entries() -> Vec<SnapshotEntry> {
        vec![
            SnapshotEntry {
                name: "gen-graph".into(),
                source: GraphSource::Suite {
                    name: "kkt_power".into(),
                    scale: Scale::Tiny,
                },
                warm: Some(WarmStart {
                    ny: 4,
                    mate_x: vec![1, -1, 3],
                }),
            },
            SnapshotEntry {
                name: "file \"quoted\"".into(),
                source: GraphSource::MtxFile(PathBuf::from("data/a b.mtx")),
                warm: None,
            },
        ]
    }

    const HEADER: &str = r#"{"kind":"header","version":3}"#;
    const GRAPH_G: &str =
        r#"{"kind":"graph","name":"g","source":"suite","suite":"kkt_power","scale":"tiny"}"#;

    /// A fresh, empty temp directory for one test.
    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("graft-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The journal text of `records`, each sealed with its crc.
    fn sealed(records: &[&str]) -> String {
        records.iter().map(|r| seal_record(r) + "\n").collect()
    }

    fn load_text(dir: &Path, text: &str) -> Result<LoadReport, SnapshotError> {
        fs::write(dir.join(SNAPSHOT_FILE), text).unwrap();
        load_on(&RealDisk, dir, None)
    }

    #[test]
    fn round_trip_through_a_directory() {
        let dir = std::env::temp_dir().join(format!("graft-snap-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let snap = Snapshot {
            entries: sample_entries(),
            deltas: vec![
                SnapshotDelta {
                    name: "gen-graph".into(),
                    adds: vec![(0, 5), (3, 1)],
                    dels: vec![(2, 2)],
                },
                // Empty deltas are not persisted.
                SnapshotDelta {
                    name: "file \"quoted\"".into(),
                    adds: vec![],
                    dels: vec![],
                },
            ],
            rebuilds: 4,
        };
        save(&dir, &snap, None).unwrap();
        let back = load(&dir, None).unwrap();
        assert_eq!(back.entries.len(), 2);
        assert_eq!(back.entries[0].name, "gen-graph");
        assert!(matches!(
            &back.entries[0].source,
            GraphSource::Suite { name, scale: Scale::Tiny } if name == "kkt_power"
        ));
        assert_eq!(
            back.entries[0].warm.as_ref().unwrap(),
            &WarmStart {
                ny: 4,
                mate_x: vec![1, -1, 3]
            }
        );
        assert_eq!(back.entries[1].name, "file \"quoted\"");
        assert!(matches!(
            &back.entries[1].source,
            GraphSource::MtxFile(p) if p == &PathBuf::from("data/a b.mtx")
        ));
        assert_eq!(back.deltas, vec![snap.deltas[0].clone()]);
        assert_eq!(back.rebuilds, 4);
        // No tmp file left behind.
        assert!(!dir.join(format!("{SNAPSHOT_FILE}.tmp")).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_snapshot_is_empty_not_error() {
        let dir = std::env::temp_dir().join(format!("graft-snap-missing-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let snap = load(&dir, None).unwrap();
        assert!(snap.entries.is_empty() && snap.deltas.is_empty() && snap.rebuilds == 0);
    }

    #[test]
    fn bad_delta_and_rebuilds_lines_are_skipped_not_fatal() {
        let dir = fresh_dir("baddelta");
        // Odd-length adds array, delta for an unregistered graph, negative
        // coordinate, non-array adds, and a negative rebuilds count: each
        // truncates the load at its own line, keeping the graph before it.
        for bad in [
            r#"{"kind":"delta","name":"g","adds":[0,1,2],"dels":[]}"#,
            r#"{"kind":"delta","name":"ghost","adds":[0,1],"dels":[]}"#,
            r#"{"kind":"delta","name":"g","adds":[-3,1],"dels":[]}"#,
            r#"{"kind":"delta","name":"g","adds":"zap","dels":[]}"#,
            r#"{"kind":"rebuilds","count":-7}"#,
        ] {
            let report = load_text(&dir, &sealed(&[HEADER, GRAPH_G, bad])).unwrap();
            assert_eq!(report.truncated.map(|t| t.line), Some(3), "{bad}");
            assert_eq!(report.snapshot.entries.len(), 1);
            assert!(report.snapshot.deltas.is_empty());
            assert_eq!(report.snapshot.rebuilds, 0);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn later_delta_for_same_graph_wins() {
        let dir = fresh_dir("dupdelta");
        let text = sealed(&[
            HEADER,
            GRAPH_G,
            r#"{"kind":"delta","name":"g","adds":[0,1],"dels":[]}"#,
            r#"{"kind":"delta","name":"g","adds":[5,6],"dels":[7,8]}"#,
        ]);
        assert_eq!(
            load_text(&dir, &text).unwrap().snapshot.deltas,
            vec![SnapshotDelta {
                name: "g".into(),
                adds: vec![(5, 6)],
                dels: vec![(7, 8)],
            }]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_journal_loads_as_a_cold_start() {
        let dir = fresh_dir("empty");
        // A zero-byte file (crash between create and first write of some
        // external tool — our own save is rename-atomic) must behave
        // exactly like a missing file: empty snapshot, no error. So must
        // a header-only file, with or without trailing blank lines.
        let header = sealed(&[HEADER]);
        for text in [String::new(), header.clone(), format!("{header}   \n\n")] {
            let report = load_text(&dir, &text).unwrap();
            assert!(report.truncated.is_none(), "{text:?}");
            let snap = report.snapshot;
            assert!(snap.entries.is_empty() && snap.deltas.is_empty() && snap.rebuilds == 0);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_final_delta_line_is_a_located_corrupt_error() {
        let dir = fresh_dir("trunc");
        // The classic torn-journal artifact: the file ends mid-record.
        // The load keeps the records before it and locates the cut.
        let full = sealed(&[
            HEADER,
            GRAPH_G,
            r#"{"kind":"delta","name":"g","adds":[0,5,3,1],"dels":[2,2]}"#,
        ]);
        // Cut the final delta line at several byte offsets: mid-key,
        // mid-array, and just before the closing brace.
        let line_start = full.rfind("{\"kind\":\"delta\"").unwrap();
        for cut in [line_start + 10, line_start + 30, full.len() - 2] {
            let report = load_text(&dir, &full[..cut]).unwrap();
            let t = report.truncated.expect("cut must be located");
            assert_eq!(t.line, 3, "cut at byte {cut} misattributed the bad line");
            assert_eq!(t.byte_offset, line_start as u64);
            assert_eq!(report.snapshot.entries.len(), 1);
            assert!(report.snapshot.deltas.is_empty());
        }
        // Sanity: the untruncated file loads and carries the delta.
        assert_eq!(load_text(&dir, &full).unwrap().snapshot.deltas.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v2_file_replayed_twice_is_stable() {
        let dir = std::env::temp_dir().join(format!("graft-snap-replay-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let snap = Snapshot {
            entries: sample_entries(),
            deltas: vec![SnapshotDelta {
                name: "gen-graph".into(),
                adds: vec![(0, 5)],
                dels: vec![(2, 2)],
            }],
            rebuilds: 9,
        };
        save(&dir, &snap, None).unwrap();
        // Loading the same journal twice must not accumulate state
        // (deltas are absolute, not incremental).
        let first = load(&dir, None).unwrap();
        let second = load(&dir, None).unwrap();
        assert_eq!(first.deltas, second.deltas);
        assert_eq!(first.entries.len(), second.entries.len());
        assert_eq!(first.rebuilds, second.rebuilds);
        // And a full load→save→load cycle is byte-stable: replaying a
        // snapshot through the service reproduces the identical journal.
        let bytes_once = fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        save(&dir, &first, None).unwrap();
        let bytes_twice = fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        assert_eq!(bytes_once, bytes_twice);
        let third = load(&dir, None).unwrap();
        assert_eq!(third.deltas, first.deltas);
        assert_eq!(third.rebuilds, first.rebuilds);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_lines_are_located() {
        let dir = fresh_dir("corrupt");
        let text = sealed(&[HEADER]) + "{\"kind\":\"graph\",\"name\":\"g\"\n";
        let report = load_text(&dir, &text).unwrap();
        assert_eq!(report.truncated.map(|t| t.line), Some(2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_mismatch_and_orphan_warm_are_rejected() {
        let dir = fresh_dir("ver");
        for version in [1, 2, 99] {
            let header = format!("{{\"kind\":\"header\",\"version\":{version}}}");
            match load_text(&dir, &sealed(&[&header])) {
                Err(SnapshotError::Corrupt { line: 1, message }) => {
                    assert_eq!(message, format!("unsupported version {version}"))
                }
                other => panic!("version {version}: expected Corrupt, got {other:?}"),
            }
        }
        let orphan = r#"{"kind":"warm","name":"ghost","ny":1,"mate_x":[0]}"#;
        let report = load_text(&dir, &sealed(&[HEADER, orphan])).unwrap();
        assert_eq!(report.truncated.map(|t| t.line), Some(2));
        assert!(report.snapshot.entries.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_start_rebuilds_a_valid_matching() {
        let w = WarmStart {
            ny: 5,
            mate_x: vec![2, -1, 4],
        };
        let m = w.to_matching().unwrap();
        assert_eq!(m.cardinality(), 2);
        assert_eq!(m.mate_of_x(0), 2);
        assert!(!m.is_x_matched(1));
        assert_eq!(WarmStart::from_matching(&m), w);
    }

    #[test]
    fn warm_start_out_of_range_is_typed() {
        let w = WarmStart {
            ny: 2,
            mate_x: vec![7],
        };
        assert!(matches!(w.to_matching(), Err(SvcError::Load(_))));
    }

    #[test]
    fn save_faults_surface_as_errors() {
        let dir = std::env::temp_dir().join(format!("graft-snap-fault-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let plan = FaultPlan::from_spec("seed=1,rate=100,max=1000,sites=snapshot-save").unwrap();
        let mut failed = 0;
        for _ in 0..50 {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                save(&dir, &Snapshot::default(), Some(&plan))
            })) {
                Ok(Err(_)) | Err(_) => failed += 1,
                Ok(Ok(())) => {}
            }
        }
        assert!(failed > 0, "100% fault rate must fail some saves");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sealed_records_verify_and_flips_fail() {
        let line = seal_record("{\"kind\":\"header\",\"version\":3}");
        assert!(verify_record(&line).is_ok());
        for bit in 0..(line.len() * 8) {
            let mut bytes = line.clone().into_bytes();
            bytes[bit / 8] ^= 1 << (bit % 8);
            if let Ok(flipped) = String::from_utf8(bytes) {
                assert!(
                    verify_record(&flipped).is_err(),
                    "bit {bit} flip went undetected: {flipped}"
                );
            }
        }
    }

    #[test]
    fn v3_update_records_replay_with_cancellation() {
        let dir = std::env::temp_dir().join(format!("graft-snap-upd-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        save(
            &dir,
            &Snapshot::from_entries(vec![SnapshotEntry {
                name: "g".into(),
                source: GraphSource::Suite {
                    name: "kkt_power".into(),
                    scale: Scale::Tiny,
                },
                warm: None,
            }]),
            None,
        )
        .unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut text = fs::read_to_string(&path).unwrap();
        // add(0,5); del(2,2); add(2,2) cancels the delete; add(7,7)
        // then del(7,7) cancels the add.
        for (add, x, y) in [
            (true, 0, 5),
            (false, 2, 2),
            (true, 2, 2),
            (true, 7, 7),
            (false, 7, 7),
        ] {
            text.push_str(&render_update_record("g", add, x, y));
            text.push('\n');
        }
        fs::write(&path, &text).unwrap();
        let report = load_on(&RealDisk, &dir, None).unwrap();
        assert!(report.truncated.is_none(), "{:?}", report.truncated);
        assert_eq!(
            report.snapshot.deltas,
            vec![SnapshotDelta {
                name: "g".into(),
                adds: vec![(0, 5)],
                dels: vec![],
            }]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v3_truncates_at_first_bad_record_and_cut_is_clean() {
        let dir = std::env::temp_dir().join(format!("graft-snap-v3cut-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        save(
            &dir,
            &Snapshot::from_entries(vec![SnapshotEntry {
                name: "g".into(),
                source: GraphSource::Suite {
                    name: "kkt_power".into(),
                    scale: Scale::Tiny,
                },
                warm: None,
            }]),
            None,
        )
        .unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut text = fs::read_to_string(&path).unwrap();
        let good_len = text.len();
        text.push_str(&render_update_record("g", true, 1, 2));
        text.push('\n');
        // A torn final record: half an update line.
        let torn = render_update_record("g", true, 3, 4);
        text.push_str(&torn[..torn.len() / 2]);
        fs::write(&path, &text).unwrap();
        let report = load_on(&RealDisk, &dir, None).unwrap();
        let cut = report.truncated.expect("torn tail must be located");
        assert_eq!(cut.line, 4);
        assert!(cut.byte_offset > good_len as u64);
        // The intact update before the tear is preserved.
        assert_eq!(report.snapshot.deltas[0].adds, vec![(1, 2)]);
        // Physically truncating at the reported offset yields a clean
        // file that loads without truncation.
        truncate_at(&RealDisk, &dir, cut.byte_offset).unwrap();
        let clean = load_on(&RealDisk, &dir, None).unwrap();
        assert!(clean.truncated.is_none());
        assert_eq!(clean.snapshot.deltas[0].adds, vec![(1, 2)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v3_update_for_unknown_graph_truncates() {
        let dir = std::env::temp_dir().join(format!("graft-snap-ghost3-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        save(&dir, &Snapshot::default(), None).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str(&render_update_record("ghost", true, 0, 0));
        text.push('\n');
        fs::write(&path, &text).unwrap();
        let report = load_on(&RealDisk, &dir, None).unwrap();
        assert_eq!(report.truncated.unwrap().line, 2);
        assert!(report.snapshot.entries.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cleanup_stale_tmp_removes_orphans() {
        let dir = std::env::temp_dir().join(format!("graft-snap-tmp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // Missing directory: nothing to do, not an error.
        assert!(cleanup_stale_tmp(&RealDisk, &dir).unwrap().is_empty());
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("registry.jsonl.tmp"), "orphan").unwrap();
        fs::write(dir.join(SNAPSHOT_FILE), "").unwrap();
        let removed = cleanup_stale_tmp(&RealDisk, &dir).unwrap();
        assert_eq!(removed, vec!["registry.jsonl.tmp".to_string()]);
        assert!(!dir.join("registry.jsonl.tmp").exists());
        assert!(dir.join(SNAPSHOT_FILE).exists(), "live file untouched");
        fs::remove_dir_all(&dir).unwrap();
    }
}
