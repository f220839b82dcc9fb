//! The outside-in replay: a workload's requests served in process and
//! single-threaded through the same public functions, in the same order,
//! as the server's dispatch (`LocalService::call` behind the event
//! engine), with a span recorded around each call into a layer.
//!
//! The replay keeps the server's state the way `LocalService` keeps it: a
//! `SharedSession` with the default configuration, and a persisted catalog
//! whose sidecar takes the same delta appends and compactions under the
//! same policy. Its reply frames are therefore the reference the benchmark
//! checks the server's replies against, byte for byte; and when they agree
//! the spans show where the server's time goes.
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! self time is its duration minus its children's; the per-request time
//! not covered by any layer (the dispatch glue, delta rendering, locking)
//! is reported as `other`, so the layer rows add up to the traced total.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mapcomp_algebra::{parse_document, Instance};
use mapcomp_catalog::{
    compose_chain_with, render_cache_entry, render_generation_marker, render_mapping_decl,
    render_migration_snapshot, render_positioned_delta, render_schema_decl, save_state, CacheEvent,
    CacheStats, Catalog, ChainCache, ComposedChain, DeltaRecord, MemoKey, Position, SessionConfig,
    ShardedMemoCache, SharedSession, SidecarWriter, VersionManifest,
};
use mapcomp_compose::{parse_update, parse_updates, DifferentialChase, Registry, Sign, Update};
use mapcomp_service::wire::{decode_request_frame, encode_reply};
use mapcomp_service::{
    sidecar_path, ChainPayload, MigratePayload, PersistPolicy, Request, Response, ServiceError,
};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `graph.resolve`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to (its index in plan order).
    pub request: usize,
}

/// In-memory span recorder. Disabled, it records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: usize,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), request: 0 }
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.nanos(Instant::now());
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start, end: start, parent, request: self.request });
        self.stack.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.nanos(Instant::now());
        let index = self.stack.pop().expect("span exit matches an enter");
        self.spans[index].end = end;
    }

    /// Record an already finished child of the current span.
    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (start, end) = (self.nanos(start), self.nanos(end));
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start, end, parent, request: self.request });
    }
}

/// Deterministic work counters of the replayed requests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Requests replayed.
    pub requests: u64,
    /// Requests that composed a path (`compose-path` and `migrate-delta`).
    pub compose_requests: u64,
    /// Links in the composed paths.
    pub links: u64,
    /// Memo-cache hits while folding.
    pub cache_hits: u64,
    /// Pairwise `compose()` calls.
    pub compose_calls: u64,
    /// Sidecar delta appends.
    pub appends: u64,
    /// Bytes those appends wrote.
    pub append_bytes: u64,
    /// `migrate-delta` batches applied to a live engine.
    pub batches: u64,
    /// Binding rows those batches charged (`DeltaReport::work`).
    pub batch_work: u64,
    /// Batches that fell back to a full re-chase.
    pub fallbacks: u64,
    /// Reply frame bytes.
    pub reply_bytes: u64,
    /// Rendered target bytes in `migrate-delta` replies.
    pub target_bytes: u64,
}

/// Which part of the plan is being replayed: counters and the per-layer
/// table cover the measured requests only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Set-up requests.
    Setup,
    /// Open- and closed-loop requests.
    Measured,
    /// Trailing requests of diverging migration sessions.
    Trailing,
}

struct Migration {
    history: Vec<String>,
    chain_hash: u64,
    engine: Option<DifferentialChase>,
}

struct PersistState {
    last_stats: CacheStats,
    appends: usize,
    next: Position,
}

/// The replayed server state.
pub struct Replay {
    session: SharedSession,
    catalog_file: PathBuf,
    sidecar: SidecarWriter,
    policy: PersistPolicy,
    persist: PersistState,
    migrations: BTreeMap<(String, String), Migration>,
    tracer: RefCell<Tracer>,
    phase: Phase,
    /// Counters of the set-up requests.
    pub setup: Counters,
    /// Counters of the measured requests.
    pub measured: Counters,
    /// Counters of the trailing requests.
    pub trailing: Counters,
}

type Reply = Result<Response, ServiceError>;

impl Replay {
    /// A fresh replay persisting to `dir/catalog.txt` under `policy`, with
    /// the server's default session configuration and `workers` striping.
    pub fn new(dir: &Path, policy: PersistPolicy, workers: usize, traced: bool) -> Replay {
        let catalog_file = dir.join("catalog.txt");
        let sidecar = SidecarWriter::new(sidecar_path(&catalog_file));
        let next = sidecar.load_full().next_position();
        let session = SharedSession::with_config(
            Catalog::new(),
            Registry::standard(),
            SessionConfig::default(),
            workers,
        );
        session.cache().enable_journal();
        let last_stats = session.cache().stats();
        Replay {
            session,
            catalog_file,
            sidecar,
            policy,
            persist: PersistState { last_stats, appends: 0, next },
            migrations: BTreeMap::new(),
            tracer: RefCell::new(Tracer::new(traced)),
            phase: Phase::Setup,
            setup: Counters::default(),
            measured: Counters::default(),
            trailing: Counters::default(),
        }
    }

    /// Switch the phase subsequent requests are counted under.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Compose `from → to` over the replayed catalog, as the migration
    /// checks need it once the replay is done.
    pub fn chain(&self, from: &str, to: &str) -> Result<ComposedChain, ServiceError> {
        Ok(self.session.compose_path(from, to)?.chain)
    }

    /// The recorded spans.
    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        std::cell::Ref::map(self.tracer.borrow(), |tracer| &tracer.spans)
    }

    fn counters(&mut self) -> &mut Counters {
        match self.phase {
            Phase::Setup => &mut self.setup,
            Phase::Measured => &mut self.measured,
            Phase::Trailing => &mut self.trailing,
        }
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.borrow_mut().enter(name);
        let value = f();
        self.tracer.borrow_mut().exit();
        value
    }

    /// Serve one request frame, as the event engine does: decode, call the
    /// service, encode the reply. `id` tags the spans.
    pub fn handle(&mut self, id: usize, frame: &str) -> String {
        self.tracer.borrow_mut().request = id;
        self.tracer.borrow_mut().enter("request");
        let decoded = self.span("wire.decode_request", || decode_request_frame(frame));
        let reply: Reply = match decoded {
            Ok((request, _, _)) => {
                self.tracer.borrow_mut().enter("service");
                let reply = self.dispatch(request);
                self.tracer.borrow_mut().exit();
                reply
            }
            Err(error) => Err(error),
        };
        let encoded = self.span("wire.encode_reply", || encode_reply(&reply));
        self.tracer.borrow_mut().exit();
        let counters = self.counters();
        counters.requests += 1;
        counters.reply_bytes += encoded.len() as u64;
        encoded
    }

    fn dispatch(&mut self, request: Request) -> Reply {
        match request {
            Request::AddDocument { text } => self.add_document(&text),
            Request::ComposePath { from, to } => {
                let result = self.compose_path(&from, &to)?;
                self.persist_if_used(result.compose_calls, result.cache_hits)?;
                let payload = self.span("render.chain", || ChainPayload::from_result(&result));
                Ok(Response::Composed(payload))
            }
            Request::MigrateDelta { from, to, updates } => self.migrate(from, to, &updates),
            other => Err(ServiceError::protocol(format!(
                "the replay serves add-document, compose-path and migrate-delta, not {}",
                other.kind()
            ))),
        }
    }

    /// `SharedSession::compose_path`, split at its layer boundaries:
    /// path resolution, then the chain driver over the sharded cache (the
    /// body of `SharedSession::compose_names`), with each pairwise
    /// `compose_pair` timed from the cache miss that causes it to the
    /// insert that memoises its result.
    fn compose_path(
        &mut self,
        from: &str,
        to: &str,
    ) -> Result<mapcomp_catalog::ChainResult, ServiceError> {
        let config = self.session.config();
        let path = self.span("graph.resolve", || {
            self.session.catalog().resolve_path_with(from, to, config.path_cost)
        })?;
        let cache =
            TracedCache { inner: self.session.cache(), tracer: &self.tracer, miss: None.into() };
        let result = self.span("chain.compose_names", || {
            compose_chain_with(
                self.session.catalog(),
                &cache,
                &path,
                self.session.registry(),
                &config.compose,
                &config.chain,
            )
        })?;
        let counters = self.counters();
        counters.compose_requests += 1;
        counters.links += path.len() as u64;
        counters.cache_hits += result.cache_hits as u64;
        counters.compose_calls += result.compose_calls as u64;
        Ok(result)
    }

    fn add_document(&mut self, text: &str) -> Reply {
        let document = self
            .span("parse.document", || parse_document(text))
            .map_err(|error| ServiceError::parse(format!("parse error: {error}")))?;
        self.span("ingest.validate", || {
            self.session.catalog().snapshot().from_document(&document)
        })?;
        let catalog = self.session.catalog();
        let schema_hash_before: BTreeMap<&String, Option<u64>> = document
            .schemas
            .keys()
            .map(|name| (name, catalog.schema(name).ok().map(|entry| entry.hash.0)))
            .collect();
        let mapping_hash_before: BTreeMap<&String, Option<u64>> = document
            .mappings
            .keys()
            .map(|name| (name, catalog.mapping(name).ok().map(|entry| entry.hash.0)))
            .collect();
        let touched = self.span("ingest.apply", || self.session.ingest_document(&document))?;
        let mut deltas = Vec::new();
        let mut manifest = VersionManifest::default();
        for name in document.schemas.keys() {
            let Ok(entry) = catalog.schema(name) else { continue };
            if schema_hash_before[name] == Some(entry.hash.0) {
                continue;
            }
            deltas.push(DeltaRecord::Schema {
                decl: render_schema_decl(&entry.name, &entry.signature),
            });
            manifest.absorb(VersionManifest::of_schema(&entry));
        }
        for name in &touched {
            let Ok(entry) = catalog.mapping(name) else { continue };
            if mapping_hash_before.get(name) == Some(&Some(entry.hash.0)) {
                continue;
            }
            let decl =
                render_mapping_decl(&entry.name, &entry.source, &entry.target, &entry.constraints);
            deltas.push(DeltaRecord::Mapping { decl });
            deltas.push(DeltaRecord::Invalidate { mapping: name.clone() });
            manifest.absorb(VersionManifest::of_mapping(&entry));
        }
        let (schemas, mappings) = (catalog.schema_count(), catalog.mapping_count());
        self.persist_change(deltas, &manifest.render())?;
        Ok(Response::Added { touched, schemas, mappings })
    }

    fn migrate(&mut self, from: String, to: String, updates: &[String]) -> Reply {
        let result = self.compose_path(&from, &to)?;
        self.persist_if_used(result.compose_calls, result.cache_hits)?;
        let chain = &result.chain;
        let parsed = self
            .span("parse.updates", || parse_updates(updates))
            .map_err(|error| ServiceError::parse(format!("bad update: {error}")))?;
        let tokens: Vec<String> = parsed.iter().map(Update::render).collect();
        let (full, target_sig) = chase_signatures(chain)?;
        let config = self.session.config().chase_config(None);
        let key = (from.clone(), to.clone());
        let mut migration = self.migrations.remove(&key).unwrap_or(Migration {
            history: Vec::new(),
            chain_hash: 0,
            engine: None,
        });
        let rebuild = migration.engine.is_none() || migration.chain_hash != chain.hash;
        // A session's first request builds the engine and applies the
        // loaded source: together they are the session's build cost.
        let applied = if rebuild {
            self.span("differential.build", || {
                let mut engine = DifferentialChase::new(
                    chain.mapping.constraints.as_slice(),
                    &full,
                    &target_sig,
                    fold_history(&migration.history),
                    self.session.registry(),
                    &config,
                );
                migration.chain_hash = chain.hash;
                let report = engine.apply(&parsed);
                migration.engine = Some(engine);
                report
            })
        } else {
            let engine = migration.engine.as_mut().expect("a live session keeps its engine");
            self.span("differential.apply", || engine.apply(&parsed))
        };
        let report = match applied {
            Ok(report) => report,
            Err(error) => {
                self.migrations.insert(key, migration);
                return Err(ServiceError::protocol(error));
            }
        };
        migration.history.extend(tokens.iter().cloned());
        let engine = migration.engine.as_ref().expect("engine was just used");
        let target = self.span("render.target", || engine.rendered_target());
        let payload = MigratePayload {
            from: from.clone(),
            to: to.clone(),
            applied: report.applied,
            inserted: report.inserted,
            deleted: report.deleted,
            retracted: report.retracted,
            rederived: report.rederived,
            fallback: report.fallback,
            source_rows: engine.source().total_tuples(),
            target_rows: engine.target().total_tuples(),
            support_entries: engine.support().len(),
            target,
        };
        self.migrations.insert(key, migration);
        let counters = self.counters();
        if !rebuild {
            counters.batches += 1;
            counters.batch_work += report.work as u64;
            counters.fallbacks += u64::from(report.fallback);
            counters.target_bytes += payload.target.len() as u64;
        }
        self.persist_change(vec![DeltaRecord::Migrate { from, to, updates: tokens }], "")?;
        Ok(Response::Migrated(payload))
    }

    fn persist_if_used(
        &mut self,
        compose_calls: usize,
        cache_hits: usize,
    ) -> Result<(), ServiceError> {
        if compose_calls > 0 || cache_hits > 0 {
            self.persist_change(Vec::new(), "")?;
        }
        Ok(())
    }

    /// The incremental persistence path of `LocalService`: one positioned
    /// chunk of catalog deltas, version lines, memo entries and a stats
    /// increment, appended through `SidecarWriter::append`; compaction when
    /// a threshold is crossed or before the first snapshot exists.
    fn persist_change(
        &mut self,
        deltas: Vec<DeltaRecord>,
        manifest: &str,
    ) -> Result<(), ServiceError> {
        if !self.catalog_file.exists() {
            return self.compact();
        }
        let mut chunk = String::new();
        let mut position = self.persist.next;
        let mut push_delta = |chunk: &mut String, record: &DeltaRecord| {
            chunk.push_str(&render_positioned_delta(position, record));
            chunk.push('\n');
            position = position.next();
        };
        for record in &deltas {
            push_delta(&mut chunk, record);
        }
        chunk.push_str(manifest);
        let cache = self.session.cache();
        let drained = cache.take_events();
        let mut last: BTreeMap<MemoKey, bool> = BTreeMap::new();
        for event in &drained {
            match *event {
                CacheEvent::Inserted(key) => last.insert(key, true),
                CacheEvent::Removed(key) => last.insert(key, false),
            };
        }
        for (key, live) in last {
            if live {
                if let Some(chain) = cache.peek(&key) {
                    chunk.push_str(&render_cache_entry(&key, &chain));
                }
            } else {
                push_delta(&mut chunk, &DeltaRecord::Evict { key });
            }
        }
        let now = cache.stats();
        let delta = now.delta_since(self.persist.last_stats);
        if !delta.is_zero() {
            push_delta(&mut chunk, &DeltaRecord::Stats(delta));
        }
        if chunk.is_empty() {
            return Ok(());
        }
        let appended = self.span("persist.append", || self.sidecar.append(&chunk));
        if let Err(error) = appended {
            cache.requeue_events(drained);
            return Err(ServiceError::transport(format!("cannot append: {error}")));
        }
        let bytes = chunk.len() + usize::from(!chunk.ends_with('\n'));
        self.persist.last_stats = now;
        self.persist.appends += 1;
        self.persist.next = position;
        let counters = self.counters();
        counters.appends += 1;
        counters.append_bytes += bytes as u64;
        let over_appends =
            self.policy.compact_appends.is_some_and(|limit| self.persist.appends >= limit);
        let over_bytes =
            self.policy.compact_bytes.is_some_and(|limit| self.sidecar.file_len() >= limit);
        if over_appends || over_bytes {
            return self.compact();
        }
        Ok(())
    }

    /// `LocalService::compact`: fold the log into a fresh snapshot through
    /// `SidecarWriter::rewrite_with_document`, opening a new generation.
    fn compact(&mut self) -> Result<(), ServiceError> {
        let boundary = Position::new(self.persist.next.generation + 1, 0);
        let mut drained = Vec::new();
        let mut snapshot_stats = None;
        let session = &self.session;
        let migrations = &self.migrations;
        let outcome = self.span("persist.compact", || {
            self.sidecar.rewrite_with_document(&self.catalog_file, || {
                drained = session.cache().take_events();
                let catalog = session.catalog().snapshot();
                let cache = session.cache().collect();
                snapshot_stats = Some(cache.stats());
                let sidecar = format!(
                    "{}{}{}",
                    render_generation_marker(boundary),
                    save_state(&catalog, &cache),
                    migration_snapshot_lines(migrations)
                );
                (catalog.to_document_string(), sidecar)
            })
        });
        if let Err(error) = outcome {
            self.session.cache().requeue_events(drained);
            return Err(ServiceError::transport(format!("cannot compact: {error}")));
        }
        if let Some(stats) = snapshot_stats {
            self.persist.last_stats = stats;
        }
        self.persist.appends = 0;
        self.persist.next = boundary;
        Ok(())
    }
}

/// The chain driver's cache, wrapped so that each pairwise composition is
/// timed: `fold_step` probes the cache, composes on a miss and inserts the
/// result, so a miss followed by the insert of the same key brackets
/// exactly one `compose_pair` call.
struct TracedCache<'a> {
    inner: &'a ShardedMemoCache,
    tracer: &'a RefCell<Tracer>,
    miss: Cell<Option<(MemoKey, Instant)>>,
}

impl ChainCache for TracedCache<'_> {
    fn cache_lookup(&self, key: MemoKey) -> Option<ComposedChain> {
        let found = self.inner.cache_lookup(key);
        if found.is_none() {
            self.miss.set(Some((key, Instant::now())));
        }
        found
    }

    fn cache_contains(&self, key: &MemoKey) -> bool {
        self.inner.cache_contains(key)
    }

    fn cache_insert(&self, key: MemoKey, chain: ComposedChain) {
        if let Some((missed, start)) = self.miss.take() {
            if missed == key {
                self.tracer.borrow_mut().record("compose.pair", start, Instant::now());
            }
        }
        self.inner.cache_insert(key, chain);
    }
}

/// The full and target signatures a migration session chases under:
/// residual symbols ride along as auxiliary target relations.
pub fn chase_signatures(
    chain: &ComposedChain,
) -> Result<(mapcomp_algebra::Signature, mapcomp_algebra::Signature), ServiceError> {
    let full = chain
        .mapping
        .input
        .union(&chain.mapping.output)
        .and_then(|sig| sig.union(&chain.residual))
        .map_err(|error| {
            ServiceError::protocol(format!("conflicting chain signatures: {error}"))
        })?;
    let mut target = chain.mapping.output.clone();
    for (name, info) in chain.residual.iter() {
        target.add(name.to_string(), info.clone());
    }
    Ok((full, target))
}

/// Fold a signed-update history into the accumulated source instance.
pub fn fold_history(history: &[String]) -> Instance {
    let mut source = Instance::new();
    for token in history {
        if let Ok(update) = parse_update(token) {
            match update.sign {
                Sign::Insert => {
                    source.insert(&update.rel, update.tuple);
                }
                Sign::Delete => {
                    source.remove(&update.rel, &update.tuple);
                }
            }
        }
    }
    source
}

fn migration_snapshot_lines(migrations: &BTreeMap<(String, String), Migration>) -> String {
    let mut out = String::new();
    for ((from, to), session) in migrations {
        if session.history.is_empty() {
            continue;
        }
        out.push_str(&render_migration_snapshot(from, to, &session.history));
        out.push('\n');
    }
    out
}
