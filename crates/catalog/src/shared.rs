//! Concurrent shared-catalog sessions: one reader-writer-locked store and a
//! parallel batch-composition session, safe to share by reference across
//! threads.
//!
//! # Concurrency model
//!
//! * **Store** — [`SharedCatalog`] is one [`Catalog`] behind one
//!   [`RwLock`]. Every method takes the guard once, delegates to the
//!   [`Catalog`] or [`crate::graph`] rule it needs and drops the guard
//!   before returning, so versioning, hashing and path resolution are
//!   written once, in [`crate::store`] and [`crate::graph`]. Reads (path
//!   resolution, chain materialisation, lookups) share the lock; a mutation
//!   and the rehash of every mapping it touches happen under one write
//!   guard, so no reader ever sees an entry whose hash disagrees with its
//!   content.
//! * **No nested guards** — std's `RwLock` queues new readers behind a
//!   waiting writer, so a thread that holds a guard and asks for another
//!   would deadlock against any writer. No guard is ever held across a call
//!   that locks again: mutations return what the session needs (touched
//!   names, before/after hashes) and the session invalidates after the
//!   guard is gone.
//! * **Cache** — the memo cache is a [`ShardedMemoCache`]: per-segment
//!   mutexes keyed by memo-key hash, merged statistics (see
//!   [`crate::cache`]). Its mutexes are exclusive, so striping is what lets
//!   workers probe it in parallel.
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

use mapcomp_algebra::{ConstraintSet, Document, Instance, Signature};
use mapcomp_analysis::{AnalysisReport, Termination};
use mapcomp_compose::{ComposeConfig, ExchangeConfig, ExchangeResult, Registry};

use crate::cache::{CacheStats, ShardedMemoCache};
use crate::chain::{compose_chain_with, ChainOptions, ChainResult, ComposedChain};
use crate::error::CatalogError;
use crate::graph::{resolve_path_with, PathCost};
use crate::hash::ContentHash;
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

/// A [`Catalog`] behind one reader-writer lock, safe to share by reference
/// between concurrent sessions. Every method takes the guard once and never
/// calls back into the store while holding it (see the module docs).
/// Mutations go through [`SharedSession`], which pairs each one with cache
/// invalidation.
#[derive(Debug, Default)]
pub struct SharedCatalog {
    inner: RwLock<Catalog>,
}

impl SharedCatalog {
    /// Share `catalog`.
    pub fn new(catalog: Catalog) -> Self {
        SharedCatalog { inner: RwLock::new(catalog) }
    }

    fn read(&self) -> RwLockReadGuard<'_, Catalog> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Catalog> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of registered schemas.
    pub fn schema_count(&self) -> usize {
        self.read().schema_count()
    }

    /// Number of registered mappings.
    pub fn mapping_count(&self) -> usize {
        self.read().mapping_count()
    }

    /// Look up a schema (cloned out under the read guard).
    pub fn schema(&self, name: &str) -> Result<SchemaEntry, CatalogError> {
        self.read().schema(name).cloned()
    }

    /// Look up a mapping (cloned out under the read guard).
    pub fn mapping(&self, name: &str) -> Result<MappingEntry, CatalogError> {
        self.read().mapping(name).cloned()
    }

    /// Resolve a path under an explicit [`PathCost`] (see
    /// [`crate::graph::resolve_path_with`]), searching the catalog in place
    /// under the read guard.
    pub fn resolve_path_with(
        &self,
        from: &str,
        to: &str,
        cost: PathCost,
    ) -> Result<Vec<String>, CatalogError> {
        resolve_path_with(&self.read(), from, to, cost)
    }

    /// Replace the entire store content with `catalog` — entries, versions
    /// and history included — in one write, so concurrent readers see either
    /// the old state or the new one in full. A replication follower uses
    /// this when it adopts a leader snapshot whose history its own state has
    /// diverged from (version counters must be taken verbatim, not
    /// re-derived by incremental upserts).
    pub fn restore(&self, catalog: &Catalog) {
        let catalog = catalog.clone();
        *self.write() = catalog;
    }

    /// Clone the whole store into a plain [`Catalog`] (versions and history
    /// preserved).
    pub fn snapshot(&self) -> Catalog {
        self.read().clone()
    }

    /// Materialise the named mapping as a one-link chain. The entry and
    /// both schemas are read under one guard, so the chain's hash always
    /// matches its content.
    pub fn link(&self, name: &str) -> Result<ComposedChain, CatalogError> {
        let catalog = self.read();
        let mapping = catalog.materialize(name)?;
        let entry = catalog.mapping(name)?;
        Ok(ComposedChain {
            source: entry.source.clone(),
            target: entry.target.clone(),
            path: vec![entry.name.clone()],
            mapping,
            residual: Signature::new(),
            hash: entry.hash.0,
            deps: BTreeSet::from([entry.name.clone()]),
        })
    }

    /// Every mapping name, in name order.
    fn mapping_names(&self) -> Vec<String> {
        self.read().mappings().map(|entry| entry.name.clone()).collect()
    }
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
    /// The cache is striped ~4 segments per worker (bounded), so workers
    /// composing disjoint chains rarely meet on a cache mutex.
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
            catalog: SharedCatalog::new(catalog),
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
        let (version, touched) = self.catalog.write().add_schema(name, signature);
        for mapping in &touched {
            self.invalidate(mapping);
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
        let (version, changed) = {
            let mut catalog = self.catalog.write();
            let before = catalog.mapping(&name).ok().map(|entry| entry.hash);
            let version = catalog.add_mapping(name.clone(), source, target, constraints)?;
            let after = catalog.mapping(&name)?.hash;
            (version, before.is_some_and(|hash| hash != after))
        };
        if changed {
            self.invalidate(&name);
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
        let (version, changed) = {
            let mut catalog = self.catalog.write();
            let before = catalog.mapping(name)?.hash;
            let version = catalog.update_mapping(name, constraints)?;
            (version, catalog.mapping(name)?.hash != before)
        };
        let dropped = if changed { self.invalidate(name) } else { 0 };
        Ok((version, dropped))
    }

    /// Remove a mapping and every cached composition depending on it.
    pub fn remove_mapping(&self, name: &str) -> Result<usize, CatalogError> {
        self.catalog
            .write()
            .remove_mapping(name)
            .ok_or_else(|| CatalogError::UnknownMapping(name.to_string()))?;
        Ok(self.invalidate(name))
    }

    /// Ingest a parsed document (schemas + mappings), invalidating cache
    /// entries and analysis reports for every mapping that was added or
    /// changed. Returns the touched mapping names. If a later entry fails,
    /// the error propagates with the earlier ones already applied — callers
    /// wanting all-or-nothing should validate against a snapshot first, as
    /// the service layer does — but every applied change is still
    /// invalidated.
    pub fn ingest_document(&self, document: &Document) -> Result<Vec<String>, CatalogError> {
        let mut touched = Vec::new();
        let applied = self.catalog.write().apply_document(document, &mut touched);
        for mapping in &touched {
            self.invalidate(mapping);
        }
        applied?;
        Ok(touched)
    }

    /// Drop cached compositions and the cached analysis report depending on
    /// a mapping; returns how many cache entries were dropped. Every
    /// mutation invalidates through here.
    pub fn invalidate(&self, mapping: &str) -> usize {
        self.analysis.lock().unwrap_or_else(PoisonError::into_inner).remove(mapping);
        self.cache.invalidate(mapping)
    }

    /// Statically analyze one mapping: weak-acyclicity termination verdict
    /// plus lint diagnostics. Reports are cached per mapping and returned
    /// only while the mapping's content hash still matches.
    pub fn analyze_mapping(
        &self,
        name: &str,
    ) -> Result<(ContentHash, Arc<AnalysisReport>), CatalogError> {
        // `link` reads the entry and its schemas under one guard, so the
        // hash names exactly the content the report is computed from.
        let chain = self.catalog.link(name)?;
        let hash = ContentHash(chain.hash);
        {
            let cache = self.analysis.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some((cached_hash, report)) = cache.get(name) {
                if *cached_hash == hash {
                    return Ok((hash, Arc::clone(report)));
                }
            }
        }
        let report = Arc::new(mapcomp_analysis::analyze_mapping(&chain.mapping));
        self.analysis
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), (hash, Arc::clone(&report)));
        Ok((hash, report))
    }

    /// Analyze every mapping in the catalog, in name order (mappings racing
    /// removal are skipped).
    pub fn analyze_all(&self) -> Vec<(String, Arc<AnalysisReport>)> {
        self.catalog
            .mapping_names()
            .into_iter()
            .filter_map(|name| {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_mapping;
    use mapcomp_algebra::{parse_constraints, parse_document, Mapping};

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
        let shared = SharedCatalog::new(catalog.clone());
        assert_eq!(shared.schema_count(), 5);
        assert_eq!(shared.mapping_count(), 4);
        assert_eq!(shared.mapping("m2").unwrap().hash, catalog.mapping("m2").unwrap().hash);
        let snapshot = shared.snapshot();
        assert_eq!(snapshot.to_document_string(), catalog.to_document_string());
        assert_eq!(snapshot.mapping("m0").unwrap().version, 1);
    }

    #[test]
    fn shared_session_composes_and_invalidates_like_a_plain_one() {
        let session = SharedSession::new(chain_catalog(5), 2);
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
        let session = SharedSession::new(chain_catalog(6), 4);
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
        let parallel = SharedSession::new(chain_catalog(5), 4);
        let parallel_results = parallel.compose_batch_parallel(&requests);
        let sequential = SharedSession::new(chain_catalog(5), 1);
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
        let session = SharedSession::new(chain_catalog(4), 1);
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
        let session = SharedSession::new(chain_catalog(3), 1);
        session.compose_path("v0", "v3").unwrap();
        // Re-adding the same mapping content must not invalidate anything.
        session.add_mapping("m1", "v1", "v2", parse_constraints("R1 <= R2").unwrap()).unwrap();
        let warm = session.compose_path("v0", "v3").unwrap();
        assert_eq!(warm.compose_calls, 0);
    }

    #[test]
    fn schema_update_invalidates_through_touching_mappings() {
        let session = SharedSession::new(chain_catalog(3), 1);
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
        let donor = SharedSession::new(chain_catalog(6), 1);
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

        let by_hops = SharedSession::new(catalog.clone(), 1);
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
        let session = SharedSession::new(chain_catalog(3), 1);
        session.compose_path("v0", "v3").unwrap();
        session.remove_mapping("m1").unwrap();
        assert!(matches!(session.compose_path("v0", "v3"), Err(CatalogError::NoPath { .. })));
    }

    #[test]
    fn concurrent_mutation_and_composition_stay_consistent() {
        let session = SharedSession::new(chain_catalog(6), 4);
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
            let session = SharedSession::new(chain_catalog(6), 1);
            session.compose_path("v0", "v6").unwrap();
            session.into_parts()
        };
        assert_eq!(catalog.mapping_count(), 6);
        assert!(!cache.is_empty());
    }

    #[test]
    fn ingesting_a_schema_edit_drops_the_rehashed_mappings_analysis() {
        let session = SharedSession::new(chain_catalog(3), 1);
        session.analyze_mapping("m1").unwrap();
        let document = parse_document("schema v2 { R2/1; Extra/2; }").unwrap();
        assert_eq!(session.ingest_document(&document).unwrap(), vec!["m1", "m2"]);
        let analyzed = |name: &str| session.analysis.lock().unwrap().contains_key(name);
        assert!(!analyzed("m1"), "the rehashed mapping's report must be dropped");
        // A document failing midway still invalidates what it applied first.
        session.analyze_mapping("m1").unwrap();
        let text = "schema v2 { R2/1; } mapping bad : v2 -> nowhere { R2 <= R2; }";
        assert!(session.ingest_document(&parse_document(text).unwrap()).is_err());
        assert!(!analyzed("m1"), "the change applied before the error must be invalidated");
    }

    #[test]
    fn links_hash_their_own_content_while_schemas_change_underneath() {
        let session = SharedSession::new(chain_catalog(2), 4);
        let wide = Signature::from_arities([("R1", 1), ("Extra", 2)]);
        let narrow = Signature::from_arities([("R1", 1)]);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for round in 0..200 {
                    let signature = if round % 2 == 0 { &wide } else { &narrow };
                    session.add_schema("v1", signature.clone());
                }
            });
            for _ in 0..3 {
                scope.spawn(|| {
                    start.wait();
                    for round in 0..200 {
                        let name = format!("m{}", round % 2);
                        let chain = session.compose_names(&[name]).unwrap().chain;
                        let Mapping { input, output, constraints } = &chain.mapping;
                        assert_eq!(chain.hash, hash_mapping(input, output, constraints).0);
                    }
                });
            }
        });
    }

    #[test]
    fn mixed_mutations_and_reads_never_deadlock() {
        use std::sync::mpsc;
        use std::time::Duration;
        let catalog = chain_catalog(4);
        let session = Arc::new(SharedSession::new(catalog.clone(), 4));
        let start = Arc::new(std::sync::Barrier::new(4));
        let (done, finished) = mpsc::channel();
        let mut workers = Vec::new();
        for thread in 0..4usize {
            let (session, catalog, done) = (Arc::clone(&session), catalog.clone(), done.clone());
            let start = Arc::clone(&start);
            workers.push(std::thread::spawn(move || {
                start.wait();
                for round in 0..40usize {
                    let i = (thread + round) % 4;
                    let copy = || parse_constraints(&format!("R{i} <= R{}", i + 1)).unwrap();
                    match (thread * 3 + round) % 8 {
                        0 => {
                            let text = format!(
                                "schema v{i} {{ R{i}/1; X{round}/1; }} \
                                 mapping m{i} : v{i} -> v{} {{ R{i} <= R{}; }}",
                                i + 1,
                                i + 1
                            );
                            session.ingest_document(&parse_document(&text).unwrap()).unwrap();
                        }
                        1 => {
                            session.add_schema(
                                format!("v{i}"),
                                Signature::from_arities([(format!("R{i}"), 1)]),
                            );
                        }
                        2 => {
                            let _ = session.update_mapping(&format!("m{i}"), copy());
                        }
                        3 => {
                            let _ = session.remove_mapping(&format!("m{i}"));
                        }
                        4 => session.restore_catalog(&catalog),
                        5 => {
                            let _ = session.compose_path("v0", "v4");
                        }
                        6 => {
                            session.analyze_all();
                        }
                        _ => {
                            session.catalog().snapshot();
                        }
                    }
                }
                done.send(thread).unwrap();
            }));
        }
        drop(done);
        for _ in 0..4 {
            // A deadlocked worker fails the test here instead of hanging it.
            finished
                .recv_timeout(Duration::from_secs(120))
                .expect("a worker panicked or deadlocked on the store lock");
        }
        for worker in workers {
            worker.join().unwrap();
        }
    }
}
