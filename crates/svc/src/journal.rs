//! The live journal: who owns the `registry.jsonl` append handle and
//! when its bytes are fsynced.
//!
//! [`snapshot`] knows the file *format*; this module
//! owns the file *lifecycle* at runtime — full rewrites (tmp + fsync +
//! rename + dir fsync) via [`Journal::save_full`], single sealed
//! `update` records via [`Journal::try_append`], and the
//! [`FsyncPolicy`] deciding when appended bytes become durable:
//!
//! | policy | append durability | cost |
//! |---|---|---|
//! | `always` | fsync before the `OK` ack — ack implies durable | one fsync per `UPDATE` |
//! | `interval-ms=N` | fsync at most every `N` ms (snapshot poller) | bounded loss window |
//! | `drain` | fsync only at full saves (periodic + drain) | pre-v3 behaviour |
//!
//! Lock order: dyn-state slot locks are always taken **before** the
//! journal lock, and nothing here takes a slot lock — callers build the
//! [`Snapshot`] they pass to [`Journal::save_full`] first.

use crate::metrics::Metrics;
use crate::snapshot::{self, Snapshot};
use graft_sim::{Disk, DiskFile};
use std::collections::HashSet;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// When appended `update` records are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Flush + fsync before every `UPDATE` ack: ack implies durable.
    Always,
    /// Fsync dirty appends at most this often (riding the snapshot
    /// poller thread); a crash loses at most one interval of acks.
    Interval(Duration),
    /// Fsync only at full saves — the pre-v3 behaviour and the default.
    Drain,
}

impl FsyncPolicy {
    /// Parses the `--fsync` CLI value: `always`, `drain`, or
    /// `interval-ms=N` (N > 0).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(Self::Always),
            "drain" => Ok(Self::Drain),
            _ => {
                let ms = s
                    .strip_prefix("interval-ms=")
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|&v| v > 0)
                    .ok_or_else(|| {
                        format!("bad fsync policy `{s}` (want always|interval-ms=N|drain)")
                    })?;
                Ok(Self::Interval(Duration::from_millis(ms)))
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Always => write!(f, "always"),
            Self::Interval(d) => write!(f, "interval-ms={}", d.as_millis()),
            Self::Drain => write!(f, "drain"),
        }
    }
}

/// What [`Journal::try_append`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// The record was appended (and fsynced, under
    /// [`FsyncPolicy::Always`]).
    Appended,
    /// The journal has no adoptable file or the graph isn't in the
    /// current epoch — the caller must [`Journal::save_full`] instead.
    NeedsRewrite,
}

struct JournalInner {
    /// Open append handle onto the live file, `None` until a save or
    /// adopt establishes a clean v3 epoch.
    file: Option<Box<dyn DiskFile>>,
    /// Appended-but-not-fsynced bytes pending (drives `Interval`).
    dirty: bool,
    /// Graphs registered in the current epoch: an append for any other
    /// name needs a rewrite first (its `graph` record isn't on disk).
    graphs: HashSet<String>,
}

/// The runtime owner of the snapshot/journal file.
pub struct Journal {
    disk: Arc<dyn Disk>,
    dir: PathBuf,
    policy: FsyncPolicy,
    metrics: Arc<Metrics>,
    inner: Mutex<JournalInner>,
}

impl Journal {
    /// A journal over `dir/registry.jsonl` on `disk`. No file is opened
    /// until [`Journal::save_full`] or [`Journal::adopt`].
    pub fn new(
        disk: Arc<dyn Disk>,
        dir: PathBuf,
        policy: FsyncPolicy,
        metrics: Arc<Metrics>,
    ) -> Self {
        Self {
            disk,
            dir,
            policy,
            metrics,
            inner: Mutex::new(JournalInner {
                file: None,
                dirty: false,
                graphs: HashSet::new(),
            }),
        }
    }

    /// The journal's fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    fn lock(&self) -> MutexGuard<'_, JournalInner> {
        // A panic mid-append leaves at worst a torn record; v3 recovery
        // truncates it, so the state behind a poisoned lock is usable.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Atomically rewrites the whole file from `snap` and starts a new
    /// append epoch over `snap`'s graphs. Counts one fsync (the save's
    /// own file fsync; the dir fsync rides along).
    pub fn save_full(
        &self,
        snap: &Snapshot,
        faults: Option<&crate::faults::FaultPlan>,
    ) -> io::Result<()> {
        let mut inner = self.lock();
        // Close the old handle first: after the rename it would point
        // at the unlinked previous file.
        inner.file = None;
        inner.dirty = false;
        snapshot::save_on(self.disk.as_ref(), &self.dir, snap, faults)?;
        self.metrics.fsync_count.fetch_add(1, Ordering::Relaxed);
        inner.graphs = snap.entries.iter().map(|e| e.name.clone()).collect();
        match self
            .disk
            .open_append(&self.dir.join(snapshot::SNAPSHOT_FILE))
        {
            Ok(f) => inner.file = Some(f),
            Err(e) => {
                // The save itself succeeded; appends just degrade to
                // NeedsRewrite until the next save.
                inner.graphs.clear();
                return Err(e);
            }
        }
        Ok(())
    }

    /// Adopts an existing clean v3 file for appends without rewriting
    /// it. `graphs` is the set of names its records register.
    pub fn adopt(&self, graphs: impl IntoIterator<Item = String>) -> io::Result<()> {
        let mut inner = self.lock();
        let f = self
            .disk
            .open_append(&self.dir.join(snapshot::SNAPSHOT_FILE))?;
        inner.file = Some(f);
        inner.dirty = false;
        inner.graphs = graphs.into_iter().collect();
        Ok(())
    }

    /// Makes the next append for `name` answer
    /// [`AppendOutcome::NeedsRewrite`], for when the file's records of
    /// `name` no longer fold to the server's journal of it: a restored
    /// delta that did not replay as recorded.
    pub fn require_rewrite(&self, name: &str) {
        self.lock().graphs.remove(name);
    }

    /// Appends one sealed `update` record for an accepted edge update.
    /// Under [`FsyncPolicy::Always`] the record is flushed and fsynced
    /// before this returns, so the caller's ack implies durability.
    pub fn try_append(&self, name: &str, add: bool, x: u32, y: u32) -> io::Result<AppendOutcome> {
        let mut inner = self.lock();
        if inner.file.is_none() || !inner.graphs.contains(name) {
            return Ok(AppendOutcome::NeedsRewrite);
        }
        let mut line = snapshot::render_update_record(name, add, x, y);
        line.push('\n');
        let wrote = {
            let file = inner.file.as_mut().expect("checked above");
            file.write_all(line.as_bytes())
        };
        if let Err(e) = wrote {
            // The handle may have written half a record; drop it so no
            // later append lands after a torn line. Recovery truncates.
            inner.file = None;
            inner.dirty = false;
            return Err(e);
        }
        if matches!(self.policy, FsyncPolicy::Always) {
            let synced = {
                let file = inner.file.as_mut().expect("checked above");
                file.flush().and_then(|_| file.sync_all())
            };
            if let Err(e) = synced {
                inner.file = None;
                inner.dirty = false;
                return Err(e);
            }
            self.metrics.fsync_count.fetch_add(1, Ordering::Relaxed);
            inner.dirty = false;
        } else {
            inner.dirty = true;
        }
        Ok(AppendOutcome::Appended)
    }

    /// Fsyncs pending appended bytes if any (the `Interval` poller and
    /// the drain path call this).
    pub fn fsync_if_dirty(&self) -> io::Result<()> {
        let mut inner = self.lock();
        if !inner.dirty {
            return Ok(());
        }
        let synced = {
            let file = inner.file.as_mut().expect("dirty implies open handle");
            file.flush().and_then(|_| file.sync_all())
        };
        match synced {
            Ok(()) => {
                self.metrics.fsync_count.fetch_add(1, Ordering::Relaxed);
                inner.dirty = false;
                Ok(())
            }
            Err(e) => {
                inner.file = None;
                inner.dirty = false;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::GraphSource;
    use crate::snapshot::{load_on, SnapshotEntry};
    use graft_gen::Scale;
    use graft_sim::{SimDisk, SimDiskConfig};
    use std::path::Path;

    fn entry(name: &str) -> SnapshotEntry {
        SnapshotEntry {
            name: name.into(),
            source: GraphSource::Suite {
                name: "kkt_power".into(),
                scale: Scale::Tiny,
            },
            warm: None,
        }
    }

    fn journal_on(disk: Arc<SimDisk>, policy: FsyncPolicy) -> Journal {
        Journal::new(
            disk,
            PathBuf::from("/state"),
            policy,
            Arc::new(Metrics::new()),
        )
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("drain"), Ok(FsyncPolicy::Drain));
        assert_eq!(
            FsyncPolicy::parse("interval-ms=250"),
            Ok(FsyncPolicy::Interval(Duration::from_millis(250)))
        );
        assert!(FsyncPolicy::parse("interval-ms=0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::Always.to_string(), "always");
        assert_eq!(
            FsyncPolicy::Interval(Duration::from_millis(7)).to_string(),
            "interval-ms=7"
        );
        assert_eq!(FsyncPolicy::Drain.to_string(), "drain");
    }

    #[test]
    fn append_before_any_save_needs_rewrite() {
        let disk = SimDisk::new(SimDiskConfig::default());
        let j = journal_on(disk, FsyncPolicy::Always);
        assert_eq!(
            j.try_append("g", true, 0, 1).unwrap(),
            AppendOutcome::NeedsRewrite
        );
    }

    #[test]
    fn append_after_save_lands_and_survives_crash_under_always() {
        let disk = SimDisk::new(SimDiskConfig::default());
        let j = journal_on(disk.clone(), FsyncPolicy::Always);
        j.save_full(&Snapshot::from_entries(vec![entry("g")]), None)
            .unwrap();
        assert_eq!(
            j.try_append("g", true, 4, 2).unwrap(),
            AppendOutcome::Appended
        );
        // Fsynced before the ack: the crash image keeps the record.
        let report = load_on(disk.crash().as_ref(), Path::new("/state"), None).unwrap();
        assert!(report.truncated.is_none());
        assert_eq!(report.snapshot.deltas[0].adds, vec![(4, 2)]);
        assert_eq!(j.metrics.fsync_count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn drain_appends_are_dirty_until_fsync() {
        let disk = SimDisk::new(SimDiskConfig::default());
        let j = journal_on(disk.clone(), FsyncPolicy::Drain);
        j.save_full(&Snapshot::from_entries(vec![entry("g")]), None)
            .unwrap();
        j.try_append("g", true, 4, 2).unwrap();
        // Not fsynced: the crash image may tear the record, but v3
        // recovery still never errors — it truncates.
        let report = load_on(disk.crash().as_ref(), Path::new("/state"), None).unwrap();
        assert!(report.snapshot.deltas.is_empty() || report.snapshot.deltas[0].adds == [(4, 2)]);
        j.fsync_if_dirty().unwrap();
        let report = load_on(disk.crash().as_ref(), Path::new("/state"), None).unwrap();
        assert!(report.truncated.is_none());
        assert_eq!(report.snapshot.deltas[0].adds, vec![(4, 2)]);
    }

    #[test]
    fn unknown_graph_append_needs_rewrite() {
        let disk = SimDisk::new(SimDiskConfig::default());
        let j = journal_on(disk, FsyncPolicy::Always);
        j.save_full(&Snapshot::from_entries(vec![entry("g")]), None)
            .unwrap();
        assert_eq!(
            j.try_append("other", true, 0, 1).unwrap(),
            AppendOutcome::NeedsRewrite
        );
    }

    #[test]
    fn adopt_appends_onto_an_existing_v3_file() {
        let disk = SimDisk::new(SimDiskConfig::default());
        {
            let j = journal_on(disk.clone(), FsyncPolicy::Always);
            j.save_full(&Snapshot::from_entries(vec![entry("g")]), None)
                .unwrap();
        }
        // A "restarted" journal adopts the clean file without rewriting.
        let j2 = journal_on(disk.clone(), FsyncPolicy::Always);
        j2.adopt(["g".to_string()]).unwrap();
        j2.try_append("g", false, 9, 9).unwrap();
        let report = load_on(disk.crash().as_ref(), Path::new("/state"), None).unwrap();
        assert!(report.truncated.is_none());
        assert_eq!(report.snapshot.deltas[0].dels, vec![(9, 9)]);
    }

    #[test]
    fn failed_save_leaves_no_handle_so_appends_degrade() {
        let dead = SimDisk::new(SimDiskConfig {
            crash_at: Some(0),
            ..SimDiskConfig::default()
        });
        let j = journal_on(dead, FsyncPolicy::Always);
        assert!(j
            .save_full(&Snapshot::from_entries(vec![entry("g")]), None)
            .is_err());
        // After the failed save there is no handle: appends degrade to
        // NeedsRewrite instead of writing onto a broken epoch.
        assert_eq!(
            j.try_append("g", true, 0, 1).unwrap(),
            AppendOutcome::NeedsRewrite
        );
    }

    #[test]
    fn append_io_error_drops_the_handle() {
        let disk = SimDisk::new(SimDiskConfig::default());
        let j = journal_on(disk.clone(), FsyncPolicy::Always);
        j.save_full(&Snapshot::from_entries(vec![entry("g")]), None)
            .unwrap();
        // Fail everything from the append's write op onward.
        let die_at = disk.op_count();
        let dying = SimDisk::new(SimDiskConfig {
            crash_at: Some(die_at),
            ..SimDiskConfig::default()
        });
        // Rebuild the same state on the dying disk, ops 0..die_at all
        // succeed (same sequence), then the append fails.
        let j2 = journal_on(dying, FsyncPolicy::Always);
        j2.save_full(&Snapshot::from_entries(vec![entry("g")]), None)
            .unwrap();
        assert!(j2.try_append("g", true, 0, 1).is_err());
        assert_eq!(
            j2.try_append("g", true, 0, 1).unwrap(),
            AppendOutcome::NeedsRewrite,
            "handle dropped after the failed write"
        );
        let _ = j;
    }
}
