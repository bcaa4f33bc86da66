//! The graph registry: named graphs behind the byte-budgeted LRU cache.
//!
//! Clients register graphs by name, either from a Matrix Market file
//! (`LOAD`) or from a graft-gen suite spec (`GEN`). The parsed
//! [`BipartiteCsr`] lives in the [`LruCache`]; the *source* of every name
//! is remembered separately (a few bytes per graph), so a graph evicted
//! under memory pressure is transparently re-materialized on its next
//! use — eviction costs a reload, never an error.
//!
//! The registry also keeps the **warm-start matching** per graph: the
//! matching produced by the last completed solve. A later solve of the
//! same graph starts from it instead of from scratch, so repeat solves
//! converge in fewer phases (one certification phase, zero augmentations,
//! once the cached matching is maximum).
//!
//! Snapshot restore goes through [`GraphRegistry::restore`], which
//! remembers sources and warm starts **without materializing** anything
//! — boot stays fast, and the first `SOLVE` of a restored name lazily
//! materializes the graph, then builds the warm matching only if the
//! warm start's dimensions match it, and reports `warm=true`.

use crate::error::SvcError;
use crate::faults::{FaultPlan, FaultSite};
use crate::lru::{LruCache, LruStats};
use crate::snapshot::{SnapshotEntry, WarmStart};
use graft_core::Matching;
use graft_gen::{suite, Scale};
use graft_graph::BipartiteCsr;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Where a named graph comes from; enough to re-materialize it after an
/// eviction.
#[derive(Clone, Debug)]
pub enum GraphSource {
    /// A Matrix Market file on disk.
    MtxFile(PathBuf),
    /// A graft-gen suite instance, e.g. `kkt_power` at `Scale::Tiny`.
    Suite {
        /// Suite entry name (see `graft_gen::suite`).
        name: String,
        /// Problem scale.
        scale: Scale,
    },
}

struct CacheEntry {
    graph: Arc<BipartiteCsr>,
    warm: Option<Arc<Matching>>,
}

/// Basic shape of a registered graph, echoed in `LOAD`/`GEN` replies.
#[derive(Clone, Copy, Debug)]
pub struct GraphInfo {
    /// `|X|`.
    pub nx: usize,
    /// `|Y|`.
    pub ny: usize,
    /// Number of edges.
    pub edges: usize,
    /// Bytes accounted to the cache for this graph.
    pub bytes: usize,
}

/// Cache + per-name counters copied out for `STATS`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegistryStats {
    /// The LRU cache counters.
    pub cache: LruStats,
    /// Graphs re-parsed/re-generated after an eviction.
    pub reloads: u64,
    /// Cached entries right now.
    pub entries: usize,
    /// Bytes accounted right now.
    pub used_bytes: usize,
    /// The configured budget.
    pub budget_bytes: usize,
    /// Names with a remembered source (cached or not).
    pub registered: usize,
}

struct Inner {
    cache: LruCache<CacheEntry>,
    sources: HashMap<String, GraphSource>,
    /// Warm starts restored from a snapshot, waiting for their graph to
    /// be materialized. Only then are they checked against the real
    /// graph dimensions and built into a matching, so a journal's `ny`
    /// never sizes an allocation on its own.
    pending_warm: HashMap<String, WarmStart>,
    reloads: u64,
}

/// Thread-safe named-graph store. Cheap to share: clone the `Arc`.
pub struct GraphRegistry {
    inner: Mutex<Inner>,
    faults: Option<&'static FaultPlan>,
}

/// Approximate resident CSR size for the given shape: two CSR copies (a
/// `usize` offset array per side plus a `u32` adjacency entry per edge
/// per direction).
pub fn approx_csr_bytes(nx: usize, ny: usize, edges: usize) -> usize {
    (nx + 1 + ny + 1) * std::mem::size_of::<usize>() + 2 * edges * std::mem::size_of::<u32>()
}

/// Approximate resident size of a parsed graph (see [`approx_csr_bytes`]).
pub fn approx_graph_bytes(g: &BipartiteCsr) -> usize {
    approx_csr_bytes(g.num_x(), g.num_y(), g.num_edges())
}

/// Estimates the resident bytes `source` would occupy, **without
/// materializing it**: Matrix Market files are answered from the header
/// alone ([`graft_graph::mtx::read_mtx_shape_file`]), suite specs from
/// the generators' linear scaling law
/// ([`graft_gen::suite::SuiteEntry::estimated_shape`]). Admission control
/// sheds oversized `LOAD`/`GEN` requests on this estimate before any
/// large allocation happens.
pub fn estimate_source_bytes(source: &GraphSource) -> Result<usize, SvcError> {
    match source {
        GraphSource::MtxFile(path) => {
            let shape = graft_graph::mtx::read_mtx_shape_file(path)
                .map_err(|e| SvcError::Load(format!("{}: {e}", path.display())))?;
            Ok(approx_csr_bytes(shape.rows, shape.cols, shape.max_edges()))
        }
        GraphSource::Suite { name, scale } => match suite::by_name(name) {
            Some(entry) => {
                let (nx, ny, edges) = entry.estimated_shape(*scale);
                Ok(approx_csr_bytes(nx, ny, edges))
            }
            None => Err(SvcError::Load(format!("unknown suite graph `{name}`"))),
        },
    }
}

fn materialize(source: &GraphSource, faults: Option<&FaultPlan>) -> Result<BipartiteCsr, SvcError> {
    if let Some(plan) = faults {
        // Injected I/O errors surface as typed load failures; injected
        // panics unwind into the caller's firewall (the worker pool for
        // solve-path reloads, the dispatch guard for inline LOAD/GEN).
        plan.maybe_fail_io(FaultSite::Reload)
            .map_err(|e| SvcError::Load(e.to_string()))?;
    }
    match source {
        GraphSource::MtxFile(path) => graft_graph::mtx::read_mtx_file(path)
            .map_err(|e| SvcError::Load(format!("{}: {e}", path.display()))),
        GraphSource::Suite { name, scale } => match suite::by_name(name) {
            Some(entry) => Ok(entry.build(*scale)),
            None => Err(SvcError::Load(format!("unknown suite graph `{name}`"))),
        },
    }
}

/// Parses a `GEN` spec: `<suite-name>` or `<suite-name>:<scale>`
/// (default scale `tiny`).
pub fn parse_gen_spec(spec: &str) -> Result<GraphSource, SvcError> {
    let (name, scale) = match spec.split_once(':') {
        Some((n, s)) => {
            let scale = Scale::parse(s)
                .ok_or_else(|| SvcError::BadRequest(format!("unknown scale `{s}`")))?;
            (n, scale)
        }
        None => (spec, Scale::Tiny),
    };
    if suite::by_name(name).is_none() {
        let known: Vec<&str> = suite::suite().iter().map(|e| e.name).collect();
        return Err(SvcError::BadRequest(format!(
            "unknown suite graph `{name}` (known: {})",
            known.join(", ")
        )));
    }
    Ok(GraphSource::Suite {
        name: name.to_string(),
        scale,
    })
}

impl GraphRegistry {
    /// A registry whose cache evicts past `budget_bytes`.
    pub fn new(budget_bytes: usize) -> Self {
        Self::with_faults(budget_bytes, None)
    }

    /// Like [`GraphRegistry::new`], with a fault plan injected into every
    /// (re)materialization.
    pub fn with_faults(budget_bytes: usize, faults: Option<&'static FaultPlan>) -> Self {
        Self {
            inner: Mutex::new(Inner {
                cache: LruCache::new(budget_bytes),
                sources: HashMap::new(),
                pending_warm: HashMap::new(),
                reloads: 0,
            }),
            faults,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers `name` from `source`, materializing it immediately.
    /// Replaces any previous graph of the same name (and drops its
    /// warm-start matching).
    pub fn register(&self, name: &str, source: GraphSource) -> Result<GraphInfo, SvcError> {
        // Parse outside the lock: loads can be slow and must not stall
        // concurrent SOLVEs of other graphs.
        let graph = materialize(&source, self.faults)?;
        let bytes = approx_graph_bytes(&graph);
        let info = GraphInfo {
            nx: graph.num_x(),
            ny: graph.num_y(),
            edges: graph.num_edges(),
            bytes,
        };
        let mut inner = self.lock();
        inner.sources.insert(name.to_string(), source);
        // A fresh registration replaces whatever a snapshot restored.
        inner.pending_warm.remove(name);
        inner.cache.insert(
            name.to_string(),
            CacheEntry {
                graph: Arc::new(graph),
                warm: None,
            },
            bytes,
        );
        Ok(info)
    }

    /// The graph and its warm-start matching (if any), re-materializing
    /// from the remembered source after an eviction.
    pub fn get(&self, name: &str) -> Result<(Arc<BipartiteCsr>, Option<Arc<Matching>>), SvcError> {
        let source = {
            let mut inner = self.lock();
            if let Some(e) = inner.cache.get(name) {
                return Ok((Arc::clone(&e.graph), e.warm.clone()));
            }
            match inner.sources.get(name) {
                Some(s) => s.clone(),
                None => return Err(SvcError::UnknownGraph(name.to_string())),
            }
        };
        // Cache miss with a known source: reload outside the lock.
        let graph = Arc::new(materialize(&source, self.faults)?);
        let bytes = approx_graph_bytes(&graph);
        let mut inner = self.lock();
        inner.reloads += 1;
        // A snapshot-restored warm start attaches on the first
        // materialization — if it still fits the graph (the source file
        // may have changed since the snapshot was written), pairs
        // vertices consistently, and pairs only edges of the graph.
        // Otherwise it is dropped and the next solve runs cold.
        let warm = inner
            .pending_warm
            .remove(name)
            .filter(|w| w.mate_x.len() == graph.num_x() && w.ny == graph.num_y())
            .and_then(|w| w.to_matching().ok())
            .filter(|m| m.edges().all(|(x, y)| graph.has_edge(x, y)))
            .map(Arc::new);
        inner.cache.insert(
            name.to_string(),
            CacheEntry {
                graph: Arc::clone(&graph),
                warm: warm.clone(),
            },
            bytes,
        );
        Ok((graph, warm))
    }

    /// Remembers `name` from a snapshot without materializing anything:
    /// the source is registered, and `warm` (if any) is checked and
    /// attached lazily on the first [`get`](Self::get).
    pub fn restore(&self, name: &str, source: GraphSource, warm: Option<WarmStart>) {
        let mut inner = self.lock();
        inner.sources.insert(name.to_string(), source);
        match warm {
            Some(w) => {
                inner.pending_warm.insert(name.to_string(), w);
            }
            None => {
                inner.pending_warm.remove(name);
            }
        }
    }

    /// The registry's durable state, for the snapshot writer: every
    /// registered source plus its current warm matching (cached or still
    /// pending from a restore), in name order for deterministic files.
    pub fn snapshot_entries(&self) -> Vec<SnapshotEntry> {
        let inner = self.lock();
        let mut names: Vec<&String> = inner.sources.keys().collect();
        names.sort();
        names
            .into_iter()
            .map(|name| {
                let warm = inner
                    .cache
                    .peek(name)
                    .and_then(|e| e.warm.as_deref())
                    .map(WarmStart::from_matching)
                    .or_else(|| inner.pending_warm.get(name).cloned());
                SnapshotEntry {
                    name: name.clone(),
                    source: inner.sources[name].clone(),
                    warm,
                }
            })
            .collect()
    }

    /// Saves `matching` as the warm start for whatever graph is cached
    /// under `name` now. A no-op if the name is not cached. A solve
    /// stores through [`store_warm_for`](Self::store_warm_for) instead,
    /// which cannot attach its matching to a graph registered after it
    /// started.
    pub fn store_warm(&self, name: &str, matching: Matching) {
        let mut inner = self.lock();
        if let Some(e) = inner.cache.get_mut(name) {
            e.warm = Some(Arc::new(matching));
        }
    }

    /// Saves `matching` as the warm start for `name` only while the cache
    /// still holds `graph`, the registration the matching was computed
    /// on (compared by pointer, O(1)). A no-op if the name has been
    /// evicted, re-registered by `LOAD`/`GEN`, or reloaded after an LRU
    /// eviction meanwhile: a reload builds a new `Arc`, so a solve that
    /// races one drops its warm start and the next solve runs cold.
    pub fn store_warm_for(&self, name: &str, graph: &Arc<BipartiteCsr>, matching: Matching) {
        let mut inner = self.lock();
        if let Some(e) = inner.cache.get_mut(name) {
            if Arc::ptr_eq(&e.graph, graph) {
                e.warm = Some(Arc::new(matching));
            }
        }
    }

    /// Forgets `name` entirely: cache entry, warm matching, and source.
    /// Returns whether the name was known.
    pub fn evict(&self, name: &str) -> bool {
        let mut inner = self.lock();
        let had_source = inner.sources.remove(name).is_some();
        let had_entry = inner.cache.remove(name).is_some();
        inner.pending_warm.remove(name);
        had_source || had_entry
    }

    /// Counter snapshot for `STATS`.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.lock();
        RegistryStats {
            cache: inner.cache.stats(),
            reloads: inner.reloads,
            entries: inner.cache.len(),
            used_bytes: inner.cache.used_bytes(),
            budget_bytes: inner.cache.budget_bytes(),
            registered: inner.sources.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suite_source() -> GraphSource {
        GraphSource::Suite {
            name: "kkt_power".into(),
            scale: Scale::Tiny,
        }
    }

    #[test]
    fn register_and_get_suite_graph() {
        let r = GraphRegistry::new(usize::MAX);
        let info = r.register("g", tiny_suite_source()).unwrap();
        assert!(info.nx > 0 && info.edges > 0);
        let (g, warm) = r.get("g").unwrap();
        assert_eq!(g.num_x(), info.nx);
        assert!(warm.is_none());
        assert_eq!(r.stats().cache.hits, 1);
    }

    #[test]
    fn unknown_graph_is_typed() {
        let r = GraphRegistry::new(usize::MAX);
        match r.get("nope") {
            Err(SvcError::UnknownGraph(n)) => assert_eq!(n, "nope"),
            other => panic!("expected UnknownGraph, got {other:?}"),
        }
    }

    #[test]
    fn eviction_reloads_from_source() {
        // Budget below one graph: each register/get round-trips through
        // materialize, but names stay usable.
        let r = GraphRegistry::new(1);
        r.register("a", tiny_suite_source()).unwrap();
        r.register("b", tiny_suite_source()).unwrap(); // evicts a
        let (_g, _) = r.get("a").unwrap(); // miss -> reload
        let s = r.stats();
        assert!(s.reloads >= 1, "stats: {s:?}");
        assert_eq!(s.registered, 2);
    }

    #[test]
    fn warm_matching_round_trip() {
        let r = GraphRegistry::new(usize::MAX);
        r.register("g", tiny_suite_source()).unwrap();
        let (g, _) = r.get("g").unwrap();
        let m = graft_core::hopcroft_karp(&g, Matching::for_graph(&g)).matching;
        let card = m.cardinality();
        r.store_warm("g", m);
        let (_, warm) = r.get("g").unwrap();
        assert_eq!(warm.unwrap().cardinality(), card);
    }

    #[test]
    fn evict_forgets_the_name() {
        let r = GraphRegistry::new(usize::MAX);
        r.register("g", tiny_suite_source()).unwrap();
        assert!(r.evict("g"));
        assert!(!r.evict("g"));
        assert!(matches!(r.get("g"), Err(SvcError::UnknownGraph(_))));
    }

    #[test]
    fn gen_spec_parsing() {
        assert!(matches!(
            parse_gen_spec("kkt_power"),
            Ok(GraphSource::Suite {
                scale: Scale::Tiny,
                ..
            })
        ));
        assert!(matches!(
            parse_gen_spec("RMAT:small"),
            Ok(GraphSource::Suite {
                scale: Scale::Small,
                ..
            })
        ));
        assert!(matches!(
            parse_gen_spec("kkt_power:galactic"),
            Err(SvcError::BadRequest(_))
        ));
        assert!(matches!(
            parse_gen_spec("not-a-graph"),
            Err(SvcError::BadRequest(_))
        ));
    }

    #[test]
    fn restore_attaches_warm_matching_lazily() {
        let r = GraphRegistry::new(usize::MAX);
        // First life: register, solve, snapshot.
        r.register("g", tiny_suite_source()).unwrap();
        let (g, _) = r.get("g").unwrap();
        let m = graft_core::hopcroft_karp(&g, Matching::for_graph(&g)).matching;
        let card = m.cardinality();
        r.store_warm("g", m);
        let entries = r.snapshot_entries();
        assert_eq!(entries.len(), 1);
        let warm = entries[0].warm.as_ref().expect("warm persisted");

        // Second life: restore without materializing, then the first get
        // returns the warm matching.
        let r2 = GraphRegistry::new(usize::MAX);
        r2.restore("g", entries[0].source.clone(), Some(warm.clone()));
        assert_eq!(r2.stats().registered, 1);
        assert_eq!(r2.stats().entries, 0, "restore must not materialize");
        let (_, warm2) = r2.get("g").unwrap();
        assert_eq!(warm2.expect("warm attached").cardinality(), card);
        // And it is durable across further gets.
        let (_, warm3) = r2.get("g").unwrap();
        assert!(warm3.is_some());
    }

    #[test]
    fn restored_warm_with_wrong_shape_is_dropped() {
        let info = GraphRegistry::new(usize::MAX)
            .register("g", tiny_suite_source())
            .unwrap();
        let mut shared_partner = vec![-1; info.nx];
        shared_partner[..2].fill(0);
        for (why, mate_x, ny) in [
            ("too few X", vec![-1; 3], info.ny),
            // Never allocated: the shape check runs first.
            ("huge ny", vec![-1; info.nx], 1 << 62),
            ("shared partner", shared_partner, info.ny),
        ] {
            let r = GraphRegistry::new(usize::MAX);
            r.restore("g", tiny_suite_source(), Some(WarmStart { ny, mate_x }));
            let (_, warm) = r.get("g").unwrap();
            assert!(
                warm.is_none(),
                "{why}: mismatched warm start must be dropped"
            );
        }
    }

    #[test]
    fn snapshot_entries_are_name_sorted_and_include_pending() {
        let r = GraphRegistry::new(usize::MAX);
        let pending = WarmStart {
            ny: 2,
            mate_x: vec![-1, -1],
        };
        r.restore("zz", tiny_suite_source(), Some(pending));
        r.register("aa", tiny_suite_source()).unwrap();
        let entries = r.snapshot_entries();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["aa", "zz"]);
        assert!(entries[0].warm.is_none());
        assert!(entries[1].warm.is_some(), "pending warm must be persisted");
    }

    #[test]
    fn estimate_tracks_registered_size() {
        let src = tiny_suite_source();
        let est = estimate_source_bytes(&src).unwrap();
        let r = GraphRegistry::new(usize::MAX);
        let info = r.register("g", src).unwrap();
        assert!(
            est <= 2 * info.bytes && info.bytes <= 2 * est,
            "estimate {est} vs actual {}",
            info.bytes
        );
    }

    #[test]
    fn injected_reload_faults_surface_as_load_errors() {
        let plan: &'static FaultPlan = Box::leak(Box::new(
            FaultPlan::from_spec("seed=5,rate=100,max=100000,sites=reload").unwrap(),
        ));
        let r = GraphRegistry::with_faults(usize::MAX, Some(plan));
        let mut typed = 0;
        for i in 0..30 {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                r.register(&format!("g{i}"), tiny_suite_source())
            })) {
                Ok(Err(SvcError::Load(msg))) => {
                    assert!(msg.contains("injected"), "{msg}");
                    typed += 1;
                }
                Ok(Ok(_)) | Err(_) => {} // delay fault passed through, or panic
                Ok(Err(other)) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(typed > 0, "100% rate must produce typed i/o failures");
    }

    #[test]
    fn load_missing_file_is_typed() {
        let r = GraphRegistry::new(usize::MAX);
        let err = r
            .register("f", GraphSource::MtxFile("/no/such/file.mtx".into()))
            .unwrap_err();
        assert!(matches!(err, SvcError::Load(_)));
    }
}
