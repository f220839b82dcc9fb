//! Concurrent shared-catalog sessions: a lock-striped store and a parallel
//! batch-composition session, safe to share by reference across threads.
//!
//! # Concurrency model
//!
//! * **Store** — [`SharedCatalog`] stripes schemas and mappings across N
//!   shards keyed by the FNV content hash of the entry name, each behind a
//!   [`RwLock`]. Lookups and chain materialisation take single-shard *read*
//!   locks, so the compose read path never serialises readers. Mapping
//!   registration write-locks only the shards involved (acquired in
//!   ascending shard order — the global lock discipline that makes deadlock
//!   impossible); schema updates write-lock every shard because they rehash
//!   the mappings that mention the schema, wherever those live.
//! * **Snapshots** — path resolution captures the composition graph under
//!   all shard read locks at once (readers still proceed concurrently) and
//!   then searches without holding any lock. Chain materialisation re-checks
//!   the entry's content hash after reading its schemas and retries on a
//!   mismatch, so a torn read across an interleaved schema edit can never
//!   produce a segment whose hash disagrees with its content.
//! * **Versions** — version counters live inside the entries and are only
//!   advanced under the shard write locks, so concurrent writers cannot
//!   lose increments.
//! * **Cache** — the memo cache is a [`ShardedMemoCache`]: per-segment
//!   mutexes keyed by memo-key hash, merged statistics (see
//!   [`crate::cache`]).
//! * **Sidecar** — persistence goes through
//!   [`crate::persist::SidecarWriter`]: a single-writer append protocol
//!   with a mutex-guarded flush; readers never block (they read a plain
//!   file that is only ever appended to or atomically replaced).
//!
//! [`SharedSession`] ties the pieces together: the catalog session API
//! (mutation with cache invalidation, analysis, chain composition, batches)
//! over one store and one cache, with instrumentation counters. Its
//! [`SharedSession::compose_batch_parallel`] fans a batch of
//! chain-composition requests across a scoped thread pool, every worker
//! sharing the same store and cache, with results returned in request
//! order. Single-threaded callers use the same type with one worker.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use mapcomp_algebra::{ConstraintSet, Document, Instance, Mapping, Signature};
use mapcomp_analysis::{AnalysisReport, Termination};
use mapcomp_compose::{ComposeConfig, ExchangeConfig, ExchangeResult, Registry};

use crate::cache::{CacheStats, ShardedMemoCache};
use crate::chain::{compose_chain_with, ChainOptions, ChainResult, ComposedChain};
use crate::error::CatalogError;
use crate::graph::{edge_cost, resolve_path_costed_in, resolve_path_in, PathCost};
use crate::hash::{hash_mapping, hash_signature, hash_str, ContentHash};
use crate::store::{Catalog, MappingEntry, SchemaEntry};

/// Configuration of a session.
#[derive(Debug, Clone, Default)]
pub struct SessionConfig {
    /// The compose configuration used for every pairwise composition (part
    /// of the memo key: sessions with different configurations never share
    /// entries).
    pub compose: ComposeConfig,
    /// Chain options (strict vs. best-effort elimination).
    pub chain: ChainOptions,
    /// Maximum number of live memo-cache entries (`None` = unbounded).
    /// When the bound is hit, least-recently-used entries are evicted; see
    /// [`crate::cache::CacheStats::evictions`].
    pub cache_capacity: Option<usize>,
    /// How `compose_path` scores candidate paths: fewest hops (default) or
    /// cheapest estimated operator-count growth (see [`PathCost`]).
    pub path_cost: PathCost,
    /// Operator override for the chase's per-evaluation tuple budget
    /// (`--eval-budget` on the CLI). `None` lets the static analyzer pick a
    /// proven bound when it can, falling back to the engine default; `Some`
    /// always wins, including over analysis-derived budgets. Not part of the
    /// memo key — the budget shapes data exchange, not composition.
    pub eval_budget: Option<usize>,
}

impl SessionConfig {
    /// Build the chase configuration this session would run data exchange
    /// under, optionally consulting an analysis report for a source domain
    /// of the given size. Precedence: engine default, then analysis-derived
    /// proven budget, then the operator's [`SessionConfig::eval_budget`]
    /// override.
    pub fn chase_config(&self, analysis: Option<(&AnalysisReport, usize)>) -> ExchangeConfig {
        let base = ExchangeConfig::default();
        let mut config = match analysis {
            Some((report, domain)) => report.exchange_config(domain, &base),
            None => base,
        };
        if let Some(budget) = self.eval_budget {
            config.eval_budget = budget;
        }
        config
    }
}

/// Render a name-sorted set of per-mapping analysis reports as the
/// byte-stable catalog-wide text: one `mapping <name>: <verdict summary>`
/// line each, with the report's diagnostics and chase skips indented two
/// spaces underneath. Shared by [`SharedSession`] and the service layer so
/// every surface emits identical bytes.
pub fn render_analysis_text(reports: &[(String, Arc<AnalysisReport>)]) -> String {
    let mut sorted: Vec<&(String, Arc<AnalysisReport>)> = reports.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::new();
    for (name, report) in sorted {
        out.push_str(&format!("mapping {name}: {}\n", report.termination.summary()));
        for diagnostic in &report.diagnostics {
            out.push_str(&format!("  {diagnostic}\n"));
        }
        for (constraint, reason) in &report.skipped {
            out.push_str(&format!("  skip: {constraint}: {reason}\n"));
        }
    }
    out
}

/// Tally of analysis verdicts across a set of reports: `(proven, unknown,
/// diagnostics)` — the counts carried by the wire `analysis` reply.
pub fn analysis_counts(reports: &[(String, Arc<AnalysisReport>)]) -> (usize, usize, usize) {
    let mut proven = 0;
    let mut unknown = 0;
    let mut diagnostics = 0;
    for (_, report) in reports {
        match report.termination {
            Termination::Proven { .. } => proven += 1,
            Termination::Unknown { .. } => unknown += 1,
        }
        diagnostics += report.diagnostics.len();
    }
    (proven, unknown, diagnostics)
}

/// Cumulative session statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Pairwise `compose()` invocations actually performed.
    pub compose_calls: usize,
    /// Paths resolved through the composition graph.
    pub paths_resolved: usize,
    /// Chain compositions served (cached or not).
    pub chains_composed: usize,
    /// Memo-cache statistics.
    pub cache: CacheStats,
    /// Live memo-cache entries.
    pub cache_entries: usize,
}

/// One stripe of the shared store.
#[derive(Debug, Default)]
struct Shard {
    schemas: BTreeMap<String, SchemaEntry>,
    mappings: BTreeMap<String, MappingEntry>,
}

fn read(shard: &RwLock<Shard>) -> RwLockReadGuard<'_, Shard> {
    shard.read().unwrap_or_else(PoisonError::into_inner)
}

fn write(shard: &RwLock<Shard>) -> RwLockWriteGuard<'_, Shard> {
    shard.write().unwrap_or_else(PoisonError::into_inner)
}

/// A catalog striped across independently reader-writer-locked shards, safe
/// to share by reference between concurrent sessions. See the module docs
/// for the locking discipline.
#[derive(Debug)]
pub struct SharedCatalog {
    shards: Vec<RwLock<Shard>>,
}

impl SharedCatalog {
    /// Stripe a catalog across `shard_count` shards (at least one).
    pub fn from_catalog(catalog: &Catalog, shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        let mut shards: Vec<Shard> = (0..shard_count).map(|_| Shard::default()).collect();
        for entry in catalog.schemas() {
            let shard = shard_index(&entry.name, shard_count);
            shards[shard].schemas.insert(entry.name.clone(), entry.clone());
        }
        for entry in catalog.mappings() {
            let shard = shard_index(&entry.name, shard_count);
            shards[shard].mappings.insert(entry.name.clone(), entry.clone());
        }
        SharedCatalog { shards: shards.into_iter().map(RwLock::new).collect() }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, name: &str) -> &RwLock<Shard> {
        &self.shards[shard_index(name, self.shards.len())]
    }

    /// Number of registered schemas.
    pub fn schema_count(&self) -> usize {
        self.shards.iter().map(|shard| read(shard).schemas.len()).sum()
    }

    /// Number of registered mappings.
    pub fn mapping_count(&self) -> usize {
        self.shards.iter().map(|shard| read(shard).mappings.len()).sum()
    }

    /// Look up a schema (cloned out of its shard under a read lock).
    pub fn schema(&self, name: &str) -> Result<SchemaEntry, CatalogError> {
        read(self.shard_of(name))
            .schemas
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::UnknownSchema(name.to_string()))
    }

    /// Look up a mapping (cloned out of its shard under a read lock).
    pub fn mapping(&self, name: &str) -> Result<MappingEntry, CatalogError> {
        read(self.shard_of(name))
            .mappings
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::UnknownMapping(name.to_string()))
    }

    /// Register or update a schema; returns the new version and the names of
    /// mappings whose content hash changed with it (the caller invalidates
    /// their cache entries). Holds every shard write lock for the duration:
    /// the schema edit and the rehash of every touching mapping are one
    /// atomic step, which is what lets readers treat an entry's
    /// hash-vs-schema consistency check as a retry condition rather than an
    /// error.
    pub fn add_schema(&self, name: impl Into<String>, signature: Signature) -> (u64, Vec<String>) {
        let name = name.into();
        let hash = hash_signature(&signature);
        let mut guards: Vec<RwLockWriteGuard<'_, Shard>> = self.shards.iter().map(write).collect();
        let home = shard_index(&name, guards.len());
        let version = match guards[home].schemas.get(&name) {
            Some(existing) if existing.hash == hash => return (existing.version, Vec::new()),
            Some(existing) => existing.version + 1,
            None => 1,
        };
        guards[home]
            .schemas
            .insert(name.clone(), SchemaEntry { name: name.clone(), signature, version, hash });
        // Rehash affected mappings across every shard.
        let schema_sigs: BTreeMap<String, Signature> = guards
            .iter()
            .flat_map(|guard| guard.schemas.iter().map(|(n, e)| (n.clone(), e.signature.clone())))
            .collect();
        let mut touched = Vec::new();
        for guard in &mut guards {
            for entry in guard.mappings.values_mut() {
                if entry.source != name && entry.target != name {
                    continue;
                }
                let (Some(source), Some(target)) =
                    (schema_sigs.get(&entry.source), schema_sigs.get(&entry.target))
                else {
                    continue;
                };
                let new_hash = hash_mapping(source, target, &entry.constraints);
                if new_hash != entry.hash {
                    entry.version += 1;
                    entry.hash = new_hash;
                    entry.history.push((entry.version, new_hash));
                    touched.push(entry.name.clone());
                }
            }
        }
        touched.sort();
        (version, touched)
    }

    /// Register or update a mapping between two registered schemas; returns
    /// the new version (re-registering identical content is a no-op).
    /// Write-locks only the shards of the mapping and its two schemas, in
    /// ascending shard order.
    pub fn add_mapping(
        &self,
        name: impl Into<String>,
        source: &str,
        target: &str,
        constraints: ConstraintSet,
    ) -> Result<u64, CatalogError> {
        let name = name.into();
        let shard_count = self.shards.len();
        let mut involved: Vec<usize> =
            [name.as_str(), source, target].iter().map(|n| shard_index(n, shard_count)).collect();
        involved.sort_unstable();
        involved.dedup();
        let guards: BTreeMap<usize, RwLockWriteGuard<'_, Shard>> =
            involved.iter().map(|&index| (index, write(&self.shards[index]))).collect();
        let schema_sig = |schema: &str| -> Result<Signature, CatalogError> {
            guards[&shard_index(schema, shard_count)]
                .schemas
                .get(schema)
                .map(|entry| entry.signature.clone())
                .ok_or_else(|| CatalogError::UnknownSchema(schema.to_string()))
        };
        let source_sig = schema_sig(source)?;
        let target_sig = schema_sig(target)?;
        let _combined = source_sig.union(&target_sig)?;
        let hash = hash_mapping(&source_sig, &target_sig, &constraints);
        let home = shard_index(&name, shard_count);
        let mut guards = guards;
        let shard = guards.get_mut(&home).expect("home shard locked");
        let (version, mut history) = match shard.mappings.get(&name) {
            Some(existing) if existing.hash == hash => return Ok(existing.version),
            Some(existing) => (existing.version + 1, existing.history.clone()),
            None => (1, Vec::new()),
        };
        history.push((version, hash));
        shard.mappings.insert(
            name.clone(),
            MappingEntry {
                name,
                source: source.to_string(),
                target: target.to_string(),
                constraints,
                version,
                hash,
                history,
            },
        );
        Ok(version)
    }

    /// Replace the constraints of an existing mapping; returns the new
    /// version.
    pub fn update_mapping(
        &self,
        name: &str,
        constraints: ConstraintSet,
    ) -> Result<u64, CatalogError> {
        let entry = self.mapping(name)?;
        self.add_mapping(name.to_string(), &entry.source, &entry.target, constraints)
    }

    /// Remove a mapping; returns its entry if it existed.
    pub fn remove_mapping(&self, name: &str) -> Option<MappingEntry> {
        write(self.shard_of(name)).mappings.remove(name)
    }

    /// Capture the composition graph — every schema name and every
    /// `(mapping, source, target)` edge — under all shard read locks at
    /// once, so the snapshot is consistent; the search then runs lock-free.
    pub fn graph_snapshot(&self) -> (BTreeSet<String>, Vec<(String, String, String)>) {
        let guards: Vec<RwLockReadGuard<'_, Shard>> = self.shards.iter().map(read).collect();
        let mut schemas = BTreeSet::new();
        let mut edges = Vec::new();
        for guard in &guards {
            schemas.extend(guard.schemas.keys().cloned());
            for entry in guard.mappings.values() {
                edges.push((entry.name.clone(), entry.source.clone(), entry.target.clone()));
            }
        }
        edges.sort();
        (schemas, edges)
    }

    /// Resolve a fewest-hops path over a consistent graph snapshot.
    pub fn resolve_path(&self, from: &str, to: &str) -> Result<Vec<String>, CatalogError> {
        let (schemas, edges) = self.graph_snapshot();
        resolve_path_in(&schemas, &edges, from, to)
    }

    /// Capture the composition graph with per-edge operator-count weights
    /// (see [`edge_cost`]), under all shard read locks at once.
    pub fn graph_snapshot_costed(&self) -> (BTreeSet<String>, Vec<crate::graph::WeightedEdge>) {
        let guards: Vec<RwLockReadGuard<'_, Shard>> = self.shards.iter().map(read).collect();
        let mut schemas = BTreeSet::new();
        let mut edges = Vec::new();
        for guard in &guards {
            schemas.extend(guard.schemas.keys().cloned());
            for entry in guard.mappings.values() {
                edges.push((
                    entry.name.clone(),
                    entry.source.clone(),
                    entry.target.clone(),
                    edge_cost(&entry.constraints),
                ));
            }
        }
        edges.sort();
        (schemas, edges)
    }

    /// Resolve a path under an explicit [`PathCost`] over a consistent graph
    /// snapshot.
    pub fn resolve_path_with(
        &self,
        from: &str,
        to: &str,
        cost: PathCost,
    ) -> Result<Vec<String>, CatalogError> {
        match cost {
            PathCost::Hops => self.resolve_path(from, to),
            PathCost::OpCount => {
                let (schemas, edges) = self.graph_snapshot_costed();
                resolve_path_costed_in(&schemas, &edges, from, to)
            }
        }
    }

    /// Replace the entire store content with `catalog` — entries, versions
    /// and history included — under all shard write locks at once, so
    /// concurrent readers see either the old state or the new one in full.
    /// This is the wholesale counterpart of [`SharedCatalog::from_catalog`],
    /// used when a replication follower adopts a leader snapshot whose
    /// history its own state has diverged from (version counters must be
    /// taken verbatim, not re-derived by incremental upserts).
    pub fn restore(&self, catalog: &Catalog) {
        let mut guards: Vec<RwLockWriteGuard<'_, Shard>> = self.shards.iter().map(write).collect();
        for guard in &mut guards {
            guard.schemas.clear();
            guard.mappings.clear();
        }
        let shard_count = guards.len();
        for entry in catalog.schemas() {
            let shard = shard_index(&entry.name, shard_count);
            guards[shard].schemas.insert(entry.name.clone(), entry.clone());
        }
        for entry in catalog.mappings() {
            let shard = shard_index(&entry.name, shard_count);
            guards[shard].mappings.insert(entry.name.clone(), entry.clone());
        }
    }

    /// Clone the whole store back into a single-threaded [`Catalog`]
    /// (versions and history preserved), taken under all shard read locks.
    pub fn snapshot(&self) -> Catalog {
        let guards: Vec<RwLockReadGuard<'_, Shard>> = self.shards.iter().map(read).collect();
        let mut catalog = Catalog::new();
        for guard in &guards {
            for entry in guard.schemas.values() {
                catalog.insert_schema_entry(entry.clone());
            }
            for entry in guard.mappings.values() {
                catalog.insert_mapping_entry(entry.clone());
            }
        }
        catalog
    }
}

impl SharedCatalog {
    /// Materialise the named mapping as a one-link chain.
    pub fn link(&self, name: &str) -> Result<ComposedChain, CatalogError> {
        loop {
            let entry = self.mapping(name)?;
            let source = self.schema(&entry.source)?;
            let target = self.schema(&entry.target)?;
            // The three reads take their shard locks one at a time; an
            // interleaved schema edit (which rehashes its mappings
            // atomically) makes the entry's recorded hash disagree with the
            // content just read — retry until the reads line up.
            if hash_mapping(&source.signature, &target.signature, &entry.constraints) != entry.hash
            {
                continue;
            }
            let mapping =
                Mapping::new(source.signature, target.signature, entry.constraints.clone());
            return Ok(ComposedChain {
                source: entry.source,
                target: entry.target,
                path: vec![entry.name.clone()],
                mapping,
                residual: Signature::new(),
                hash: entry.hash.0,
                deps: BTreeSet::from([entry.name]),
            });
        }
    }
}

fn shard_index(name: &str, shard_count: usize) -> usize {
    (hash_str(name) % shard_count as u64) as usize
}

/// A catalog session: store + graph + chain driver + memo cache, with
/// mutation-triggered invalidation and cumulative instrumentation. Editing
/// a mapping through the session drops exactly the cached compositions
/// whose provenance mentions it, so the next `compose_path` recomputes only
/// the affected part of each chain. Every method takes `&self`, so one
/// session can be shared by reference across threads (it is `Sync`);
/// instrumentation counters are atomics.
pub struct SharedSession {
    catalog: SharedCatalog,
    registry: Registry,
    config: SessionConfig,
    cache: ShardedMemoCache,
    /// Per-mapping static-analysis verdicts: name → (content hash at
    /// analysis time, report). Hash-checked on read (a mismatch means the
    /// report is stale and is recomputed), cleared at every invalidation
    /// site.
    analysis: Mutex<BTreeMap<String, (ContentHash, Arc<AnalysisReport>)>>,
    workers: usize,
    compose_calls: AtomicUsize,
    paths_resolved: AtomicUsize,
    chains_composed: AtomicUsize,
}

impl SharedSession {
    /// Share `catalog` for parallel batches over `workers` worker threads,
    /// with the standard registry and default configuration.
    pub fn new(catalog: Catalog, workers: usize) -> Self {
        SharedSession::with_config(catalog, Registry::standard(), SessionConfig::default(), workers)
    }

    /// Create a shared session with an explicit registry and configuration.
    /// The store and cache are striped ~4 stripes per worker (bounded), so
    /// workers composing disjoint chains rarely meet on a lock.
    pub fn with_config(
        catalog: Catalog,
        registry: Registry,
        config: SessionConfig,
        workers: usize,
    ) -> Self {
        let workers = workers.max(1);
        let stripes = workers.saturating_mul(4).clamp(4, 64);
        let cache = ShardedMemoCache::new(stripes, config.cache_capacity);
        SharedSession {
            catalog: SharedCatalog::from_catalog(&catalog, stripes),
            registry,
            config,
            cache,
            analysis: Mutex::new(BTreeMap::new()),
            workers,
            compose_calls: AtomicUsize::new(0),
            paths_resolved: AtomicUsize::new(0),
            chains_composed: AtomicUsize::new(0),
        }
    }

    /// The shared store.
    pub fn catalog(&self) -> &SharedCatalog {
        &self.catalog
    }

    /// The configured worker count for parallel batches.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The operator registry compositions run under (also the registry any
    /// chase over this session's mappings should use, so user-defined
    /// operators evaluate identically in both).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The sharded memo cache (provenance queries, instrumentation).
    pub fn cache(&self) -> &ShardedMemoCache {
        &self.cache
    }

    /// Seed the sharded cache from a plain cache (e.g. one restored from a
    /// sidecar). Entries are redistributed across segments; the persisted
    /// cumulative statistics become the merged baseline. Content addressing
    /// makes this safe: entries that no longer match any current mapping
    /// hash are simply never hit.
    pub fn restore_cache(&mut self, cache: crate::cache::MemoCache) {
        let stripes = self.cache.segment_count();
        self.cache = ShardedMemoCache::from_cache(cache, stripes, self.config.cache_capacity);
    }

    /// Replace the whole catalog content with `catalog` (see
    /// [`SharedCatalog::restore`]) and drop every memoised composition and
    /// analysis report — they describe the superseded state. A replication
    /// follower calls this when it adopts a leader snapshot it cannot reach
    /// by incremental delta application.
    pub fn restore_catalog(&self, catalog: &Catalog) {
        self.catalog.restore(catalog);
        self.cache.clear();
        self.analysis.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }

    /// Register or update a schema; invalidates cached compositions that
    /// depend on any mapping whose content hash changed with it.
    pub fn add_schema(&self, name: impl Into<String>, signature: Signature) -> u64 {
        let (version, touched) = self.catalog.add_schema(name, signature);
        for mapping in touched {
            self.cache.invalidate(&mapping);
            self.drop_analysis(&mapping);
        }
        version
    }

    /// Register or update a mapping; an update (changed content) invalidates
    /// every cached composition depending on it. Returns the new version.
    pub fn add_mapping(
        &self,
        name: impl Into<String>,
        source: &str,
        target: &str,
        constraints: ConstraintSet,
    ) -> Result<u64, CatalogError> {
        let name = name.into();
        let before = self.catalog.mapping(&name).ok().map(|entry| entry.hash);
        let version = self.catalog.add_mapping(name.clone(), source, target, constraints)?;
        let after = self.catalog.mapping(&name)?.hash;
        if before.is_some() && before != Some(after) {
            self.cache.invalidate(&name);
            self.drop_analysis(&name);
        }
        Ok(version)
    }

    /// Edit an existing mapping's constraints. Returns the new version and
    /// how many cached compositions were invalidated.
    pub fn update_mapping(
        &self,
        name: &str,
        constraints: ConstraintSet,
    ) -> Result<(u64, usize), CatalogError> {
        let before = self.catalog.mapping(name)?.hash;
        let version = self.catalog.update_mapping(name, constraints)?;
        let dropped = if self.catalog.mapping(name)?.hash != before {
            self.drop_analysis(name);
            self.cache.invalidate(name)
        } else {
            0
        };
        Ok((version, dropped))
    }

    /// Remove a mapping and every cached composition depending on it.
    pub fn remove_mapping(&self, name: &str) -> Result<usize, CatalogError> {
        self.catalog
            .remove_mapping(name)
            .ok_or_else(|| CatalogError::UnknownMapping(name.to_string()))?;
        self.drop_analysis(name);
        Ok(self.cache.invalidate(name))
    }

    /// Ingest a parsed document (schemas + mappings), invalidating cache
    /// entries for every mapping that was added or changed. Returns the
    /// touched mapping names. Entries are applied
    /// and invalidated one at a time, so even if a later entry fails (and
    /// the error propagates with the earlier ones already applied — callers
    /// wanting all-or-nothing should validate against a snapshot first, as
    /// the service layer does), no applied change ever escapes cache
    /// invalidation.
    pub fn ingest_document(&self, document: &Document) -> Result<Vec<String>, CatalogError> {
        let mut touched = Vec::new();
        for (name, signature) in &document.schemas {
            let (_, rehashed) = self.catalog.add_schema(name.clone(), signature.clone());
            for name in rehashed {
                self.cache.invalidate(&name);
                touched.push(name);
            }
        }
        for (name, (source, target, constraints)) in &document.mappings {
            let before = self.catalog.mapping(name).ok().map(|entry| entry.hash);
            let version =
                self.catalog.add_mapping(name.clone(), source, target, constraints.clone())?;
            let after = self.catalog.mapping(name)?.hash;
            if before != Some(after) || version == 1 {
                self.cache.invalidate(name);
                self.drop_analysis(name);
                touched.push(name.clone());
            }
        }
        touched.sort();
        touched.dedup();
        Ok(touched)
    }

    /// Explicitly drop cached compositions depending on a mapping; returns
    /// how many entries were dropped.
    pub fn invalidate(&self, mapping: &str) -> usize {
        self.drop_analysis(mapping);
        self.cache.invalidate(mapping)
    }

    fn drop_analysis(&self, mapping: &str) {
        self.analysis.lock().unwrap_or_else(PoisonError::into_inner).remove(mapping);
    }

    /// Statically analyze one mapping: weak-acyclicity termination verdict
    /// plus lint diagnostics. Reports are cached per mapping and returned
    /// only while the mapping's content hash still matches.
    pub fn analyze_mapping(
        &self,
        name: &str,
    ) -> Result<(ContentHash, Arc<AnalysisReport>), CatalogError> {
        let hash = self.catalog.mapping(name)?.hash;
        {
            let cache = self.analysis.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some((cached_hash, report)) = cache.get(name) {
                if *cached_hash == hash {
                    return Ok((hash, Arc::clone(report)));
                }
            }
        }
        // `link` retries torn reads, so the materialised mapping is
        // hash-consistent even against concurrent schema edits.
        let chain = self.catalog.link(name)?;
        let report = Arc::new(mapcomp_analysis::analyze_mapping(&chain.mapping));
        self.analysis
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), (hash, Arc::clone(&report)));
        Ok((hash, report))
    }

    /// Analyze every mapping in the catalog, in name order (over a graph
    /// snapshot; mappings racing removal are skipped).
    pub fn analyze_all(&self) -> Vec<(String, Arc<AnalysisReport>)> {
        let (_, edges) = self.catalog.graph_snapshot();
        edges
            .into_iter()
            .filter_map(|(name, _, _)| {
                let report = self.analyze_mapping(&name).ok()?.1;
                Some((name, report))
            })
            .collect()
    }

    /// Byte-stable catalog-wide analysis text: one `mapping <name>:
    /// <verdict>` line per mapping (name-sorted), with diagnostics and chase
    /// skips indented underneath. This is the payload of the wire `analyze`
    /// frame and the `lint` CLI subcommand.
    pub fn analysis_text(&self, only: Option<&str>) -> Result<String, CatalogError> {
        let reports = match only {
            Some(name) => vec![(name.to_string(), self.analyze_mapping(name)?.1)],
            None => self.analyze_all(),
        };
        Ok(render_analysis_text(&reports))
    }

    /// Run data exchange for a mapping under an analysis-guided chase
    /// configuration (see [`SessionConfig::chase_config`]): proven mappings
    /// chase under their derived budget, unknown ones under runtime limits,
    /// and the result records the verdict it executed under.
    pub fn exchange_analyzed(
        &self,
        name: &str,
        source: &Instance,
    ) -> Result<ExchangeResult, CatalogError> {
        let report = self.analyze_mapping(name)?.1;
        let mapping = self.catalog.link(name)?.mapping;
        let full = mapping.combined_signature().map_err(CatalogError::Algebra)?;
        let config =
            self.config.chase_config(Some((&report, mapcomp_analysis::domain_size(source))));
        Ok(mapcomp_compose::exchange(
            mapping.constraints.as_slice(),
            &full,
            &mapping.output,
            source,
            &self.registry,
            &config,
        ))
    }

    /// Resolve a path under the configured [`PathCost`] and compose it.
    pub fn compose_path(&self, from: &str, to: &str) -> Result<ChainResult, CatalogError> {
        let path = self.catalog.resolve_path_with(from, to, self.config.path_cost)?;
        self.paths_resolved.fetch_add(1, Ordering::Relaxed);
        self.compose_names(&path)
    }

    /// Compose an explicit chain of mapping names.
    pub fn compose_names(&self, names: &[String]) -> Result<ChainResult, CatalogError> {
        let result = compose_chain_with(
            &self.catalog,
            &self.cache,
            names,
            &self.registry,
            &self.config.compose,
            &self.config.chain,
        )?;
        self.compose_calls.fetch_add(result.compose_calls, Ordering::Relaxed);
        self.chains_composed.fetch_add(1, Ordering::Relaxed);
        Ok(result)
    }

    /// Compose a batch of `(from, to)` requests, fanned across the session's
    /// scoped worker pool. All workers share this session's store and cache,
    /// so overlapping chains pay for their common segments once; results
    /// come back in request order and per-request failures do not abort the
    /// batch.
    pub fn compose_batch_parallel(
        &self,
        requests: &[(String, String)],
    ) -> Vec<Result<ChainResult, CatalogError>> {
        self.compose_batch_parallel_with(requests, self.workers)
    }

    /// [`SharedSession::compose_batch_parallel`] with an explicit worker
    /// count for this batch (the service layer's `ComposeBatch { workers }`
    /// request), still sharing the session's store and cache.
    pub fn compose_batch_parallel_with(
        &self,
        requests: &[(String, String)],
        workers: usize,
    ) -> Vec<Result<ChainResult, CatalogError>> {
        let workers = workers.min(requests.len()).max(1);
        let mut slots: Vec<Option<Result<ChainResult, CatalogError>>> =
            (0..requests.len()).map(|_| None).collect();
        if workers <= 1 {
            for (slot, (from, to)) in slots.iter_mut().zip(requests) {
                *slot = Some(self.compose_path(from, to));
            }
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|worker| {
                        scope.spawn(move || {
                            let mut done = Vec::new();
                            let mut index = worker;
                            while index < requests.len() {
                                let (from, to) = &requests[index];
                                done.push((index, self.compose_path(from, to)));
                                index += workers;
                            }
                            done
                        })
                    })
                    .collect();
                for handle in handles {
                    for (index, result) in handle.join().expect("batch worker panicked") {
                        slots[index] = Some(result);
                    }
                }
            });
        }
        slots.into_iter().map(|slot| slot.expect("every request is assigned a worker")).collect()
    }

    /// Cumulative statistics (counters are read with relaxed ordering; the
    /// cache counters are merged atomically across segments).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            compose_calls: self.compose_calls.load(Ordering::Relaxed),
            paths_resolved: self.paths_resolved.load(Ordering::Relaxed),
            chains_composed: self.chains_composed.load(Ordering::Relaxed),
            cache: self.cache.stats(),
            cache_entries: self.cache.len(),
        }
    }

    /// Tear the session apart into a plain catalog snapshot and a merged
    /// memo cache, e.g. to persist.
    pub fn into_parts(self) -> (Catalog, crate::cache::MemoCache) {
        let catalog = self.catalog.snapshot();
        let capacity = self.config.cache_capacity;
        (catalog, self.cache.into_cache(capacity))
    }
}

impl Catalog {
    /// Share this catalog for concurrent sessions: returns a
    /// [`SharedSession`] whose parallel batch API fans requests across
    /// `workers` scoped threads. See the [`crate::shared`] module docs for
    /// the concurrency model.
    pub fn with_workers(self, workers: usize) -> SharedSession {
        SharedSession::new(self, workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::parse_constraints;

    fn chain_catalog(hops: usize) -> Catalog {
        let mut catalog = Catalog::new();
        for i in 0..=hops {
            catalog.add_schema(format!("v{i}"), Signature::from_arities([(format!("R{i}"), 1)]));
        }
        for i in 0..hops {
            catalog
                .add_mapping(
                    format!("m{i}"),
                    &format!("v{i}"),
                    &format!("v{}", i + 1),
                    parse_constraints(&format!("R{i} <= R{}", i + 1)).unwrap(),
                )
                .unwrap();
        }
        catalog
    }

    #[test]
    fn shared_catalog_round_trips_through_snapshot() {
        let catalog = chain_catalog(4);
        let shared = SharedCatalog::from_catalog(&catalog, 4);
        assert_eq!(shared.schema_count(), 5);
        assert_eq!(shared.mapping_count(), 4);
        assert_eq!(shared.mapping("m2").unwrap().hash, catalog.mapping("m2").unwrap().hash);
        let snapshot = shared.snapshot();
        assert_eq!(snapshot.to_document_string(), catalog.to_document_string());
        assert_eq!(snapshot.mapping("m0").unwrap().version, 1);
    }

    #[test]
    fn shared_resolution_matches_single_threaded() {
        let catalog = chain_catalog(5);
        let shared = SharedCatalog::from_catalog(&catalog, 3);
        assert_eq!(
            shared.resolve_path("v0", "v5").unwrap(),
            crate::graph::resolve_path(&catalog, "v0", "v5").unwrap()
        );
        assert!(matches!(shared.resolve_path("v5", "v0"), Err(CatalogError::NoPath { .. })));
        assert!(matches!(shared.resolve_path("v1", "v1"), Err(CatalogError::EmptyPath { .. })));
    }

    #[test]
    fn shared_schema_update_rehashes_across_shards() {
        let catalog = chain_catalog(3);
        let shared = SharedCatalog::from_catalog(&catalog, 4);
        let before = shared.mapping("m1").unwrap().hash;
        let (version, touched) =
            shared.add_schema("v2", Signature::from_arities([("R2", 1), ("Extra", 2)]));
        assert_eq!(version, 2);
        assert_eq!(touched, vec!["m1".to_string(), "m2".to_string()]);
        assert_ne!(shared.mapping("m1").unwrap().hash, before);
        assert_eq!(shared.mapping("m1").unwrap().version, 2);
    }

    #[test]
    fn shared_session_composes_and_invalidates_like_a_plain_one() {
        let session = chain_catalog(5).with_workers(2);
        let cold = session.compose_path("v0", "v5").unwrap();
        assert_eq!(cold.compose_calls, 4);
        let warm = session.compose_path("v0", "v5").unwrap();
        assert_eq!(warm.compose_calls, 0);
        let (version, dropped) = session
            .update_mapping("m2", parse_constraints("project[0](R2) <= R3").unwrap())
            .unwrap();
        assert_eq!(version, 2);
        assert!(dropped > 0);
        let incremental = session.compose_path("v0", "v5").unwrap();
        assert!(incremental.compose_calls > 0);
        assert!(incremental.compose_calls < cold.compose_calls);
        assert!(incremental.is_complete());
        let stats = session.stats();
        assert_eq!(stats.chains_composed, 3);
        assert_eq!(stats.paths_resolved, 3);
        assert!(stats.cache.hits > 0);
    }

    #[test]
    fn parallel_batch_returns_results_in_request_order() {
        let session = chain_catalog(6).with_workers(4);
        let mut requests = Vec::new();
        for i in 0..6 {
            for j in (i + 1)..=6 {
                requests.push((format!("v{i}"), format!("v{j}")));
            }
        }
        requests.push(("v6".to_string(), "v0".to_string())); // unreachable
        let results = session.compose_batch_parallel(&requests);
        assert_eq!(results.len(), requests.len());
        for (index, (from, to)) in requests.iter().enumerate().take(requests.len() - 1) {
            let result = results[index].as_ref().unwrap_or_else(|e| {
                panic!("request {index} ({from} -> {to}) failed: {e}");
            });
            assert_eq!(result.chain.source, *from);
            assert_eq!(result.chain.target, *to);
            assert!(result.is_complete());
            let text = result.chain.mapping.constraints.to_string();
            let (i, j) = (&from[1..], &to[1..]);
            assert!(text.contains(&format!("R{i}")) && text.contains(&format!("R{j}")), "{text}");
        }
        assert!(matches!(results.last().unwrap(), Err(CatalogError::NoPath { .. })));
        // The batch shares one cache: far fewer pairwise compositions than
        // composing every request cold.
        let stats = session.stats();
        assert!(stats.compose_calls < requests.len() * 5);
        assert!(stats.cache.hits > 0);
    }

    #[test]
    fn parallel_batch_matches_sequential_results() {
        let requests: Vec<(String, String)> = (0..5)
            .flat_map(|i| ((i + 1)..=5).map(move |j| (format!("v{i}"), format!("v{j}"))))
            .chain([("v9".to_string(), "v0".to_string())])
            .collect();
        let parallel = chain_catalog(5).with_workers(4);
        let parallel_results = parallel.compose_batch_parallel(&requests);
        let sequential = chain_catalog(5).with_workers(1);
        let sequential_results = sequential.compose_batch_parallel(&requests);
        assert_eq!(parallel_results.len(), sequential_results.len());
        for (index, (p, s)) in parallel_results.iter().zip(&sequential_results).enumerate() {
            match (p, s) {
                (Ok(p), Ok(s)) => {
                    assert_eq!(
                        p.chain.mapping.constraints.to_string(),
                        s.chain.mapping.constraints.to_string(),
                        "request {index} diverged"
                    );
                    assert_eq!(p.chain.path, s.chain.path);
                    // Not compared: `chain.hash`, which encodes the fold
                    // association actually used and so legitimately varies
                    // with cache warmth (scheduling) even for equal content.
                }
                (Err(_), Err(_)) => {}
                other => panic!("request {index}: outcome mismatch {other:?}"),
            }
        }
        // Failed requests are not counted as composed chains.
        assert_eq!(parallel.stats().chains_composed, requests.len() - 1);
    }

    #[test]
    fn sequential_batch_requests_share_segments() {
        let session = chain_catalog(4).with_workers(1);
        let results = session.compose_batch_parallel(&[
            ("v0".to_string(), "v3".to_string()),
            ("v0".to_string(), "v4".to_string()),
            ("v9".to_string(), "v0".to_string()),
        ]);
        assert!(results[0].is_ok());
        assert!(results[1].is_ok());
        assert!(results[2].is_err(), "unknown schema fails without aborting the batch");
        // Request 2 extends request 1's chain: one extra composition only.
        assert_eq!(results[1].as_ref().unwrap().compose_calls, 1);
    }

    #[test]
    fn identical_reregistration_keeps_the_cache_warm() {
        let session = chain_catalog(3).with_workers(1);
        session.compose_path("v0", "v3").unwrap();
        // Re-adding the same mapping content must not invalidate anything.
        session.add_mapping("m1", "v1", "v2", parse_constraints("R1 <= R2").unwrap()).unwrap();
        let warm = session.compose_path("v0", "v3").unwrap();
        assert_eq!(warm.compose_calls, 0);
    }

    #[test]
    fn schema_update_invalidates_through_touching_mappings() {
        let session = chain_catalog(3).with_workers(1);
        session.compose_path("v0", "v3").unwrap();
        // Growing v2 changes m1 and m2's content hashes.
        session.add_schema("v2", Signature::from_arities([("R2", 1), ("Extra", 2)]));
        let after = session.compose_path("v0", "v3").unwrap();
        assert!(after.compose_calls > 0, "schema edit must force recomposition");
    }

    #[test]
    fn bounded_cache_evicts_but_stays_correct() {
        let hops = 6;
        let config = SessionConfig { cache_capacity: Some(2), ..SessionConfig::default() };
        let session =
            SharedSession::with_config(chain_catalog(hops), Registry::standard(), config, 1);
        let first = session.compose_path("v0", &format!("v{hops}")).unwrap();
        assert_eq!(first.compose_calls, hops - 1);
        let stats = session.stats();
        // The capacity is split across the cache's segments, so it bounds
        // live entries below the chain's hops - 1 pairwise segments.
        assert!(stats.cache_entries < hops - 1, "capacity bounds live entries");
        assert!(stats.cache.evictions > 0, "composing a long chain must evict");
        // Recomposition still works (paying for the evicted segments again).
        let again = session.compose_path("v0", &format!("v{hops}")).unwrap();
        assert!(again.is_complete());
        assert!(again.compose_calls > 0);
    }

    #[test]
    fn restoring_a_larger_cache_does_not_count_the_trim_as_evictions() {
        // A capacity-bounded session restoring a larger persisted cache must
        // not count the replay trim as workload evictions — however many
        // restore cycles happen in one process.
        let donor = chain_catalog(6).with_workers(1);
        donor.compose_path("v0", "v6").unwrap();
        let (catalog, persisted_cache) = donor.into_parts();
        let persisted = persisted_cache.stats();
        assert!(persisted.insertions >= 5);

        let config = SessionConfig { cache_capacity: Some(2), ..SessionConfig::default() };
        let mut bounded = SharedSession::with_config(catalog, Registry::standard(), config, 1);
        for cycle in 0..3 {
            bounded.restore_cache(persisted_cache.clone());
            assert_eq!(
                bounded.cache().stats(),
                persisted,
                "cycle {cycle}: replay trim must not count as evictions"
            );
            assert!(bounded.cache().len() < persisted_cache.len(), "the restore trims");
        }
    }

    #[test]
    fn op_count_path_cost_picks_the_cheaper_longer_route() {
        // A 2-hop shortcut through operator-heavy mappings vs. the 3-hop
        // copy chain: hop-based resolution takes the shortcut, op-count-based
        // resolution the cheap chain — and both compose successfully.
        let mut catalog = chain_catalog(3);
        catalog.add_schema("shortcut", Signature::from_arities([("S", 1)]));
        catalog
            .add_mapping(
                "heavy1",
                "v0",
                "shortcut",
                parse_constraints("project[0](select[#0 = #1](R0 * R0)) <= S").unwrap(),
            )
            .unwrap();
        catalog
            .add_mapping(
                "heavy2",
                "shortcut",
                "v3",
                parse_constraints("project[0](select[#0 = #1](S * S)) <= R3").unwrap(),
            )
            .unwrap();

        let by_hops = catalog.clone().with_workers(1);
        let short = by_hops.compose_path("v0", "v3").unwrap();
        assert_eq!(short.chain.path, vec!["heavy1", "heavy2"]);

        let config = SessionConfig { path_cost: PathCost::OpCount, ..SessionConfig::default() };
        let by_cost = SharedSession::with_config(catalog, Registry::standard(), config, 1);
        let cheap = by_cost.compose_path("v0", "v3").unwrap();
        assert_eq!(cheap.chain.path, vec!["m0", "m1", "m2"]);
        assert!(cheap.is_complete());
    }

    #[test]
    fn remove_mapping_breaks_the_path() {
        let session = chain_catalog(3).with_workers(1);
        session.compose_path("v0", "v3").unwrap();
        session.remove_mapping("m1").unwrap();
        assert!(matches!(session.compose_path("v0", "v3"), Err(CatalogError::NoPath { .. })));
    }

    #[test]
    fn concurrent_mutation_and_composition_stay_consistent() {
        let session = chain_catalog(6).with_workers(4);
        let session = &session;
        std::thread::scope(|scope| {
            for worker in 0..4usize {
                scope.spawn(move || {
                    for round in 0..10usize {
                        match (worker + round) % 3 {
                            0 => {
                                let result = session.compose_path("v0", "v6").unwrap();
                                assert!(result.is_complete());
                            }
                            1 => {
                                session.invalidate(&format!("m{}", round % 6));
                            }
                            _ => {
                                // Identical re-registration: a no-op that
                                // must not disturb anyone.
                                let i = round % 6;
                                session
                                    .add_mapping(
                                        format!("m{i}"),
                                        &format!("v{i}"),
                                        &format!("v{}", i + 1),
                                        parse_constraints(&format!("R{i} <= R{}", i + 1)).unwrap(),
                                    )
                                    .unwrap();
                            }
                        }
                    }
                });
            }
        });
        let (catalog, cache) = {
            let session = chain_catalog(6).with_workers(1);
            session.compose_path("v0", "v6").unwrap();
            session.into_parts()
        };
        assert_eq!(catalog.mapping_count(), 6);
        assert!(!cache.is_empty());
    }
}
