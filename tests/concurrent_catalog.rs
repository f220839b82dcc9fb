//! Concurrency suite for the shared catalog: N threads fire a seeded random
//! mix of compose / invalidate / re-register / edit operations at one
//! [`SharedSession`], and every observable outcome must be byte-identical
//! to a sequential replay of the same per-thread operation sequences on a
//! one-worker [`SharedSession`]. The generator runs on the deterministic `rand`
//! shim, so a failing interleaving reproduces from its printed thread seed.
//!
//! Deliberately *not* compared: schedule-dependent instrumentation such as
//! per-request `compose_calls`, cache-hit counts and invalidation drop
//! counts — those measure how much cached work a particular interleaving
//! could reuse, not what was computed. Everything semantically observable
//! (composed constraints, paths, completeness, version counters, hashes) is
//! compared exactly.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use mapping_composition::catalog::{save_state, SharedSession, SidecarWriter, VersionManifest};
use mapping_composition::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 24;
const HOPS: usize = 8;
const BASE_SEED: u64 = 0xC0FFEE;

/// One stress operation. Spans and indices refer to the shared copy chain
/// `v0 → … → vHOPS` (mappings `m0 … m{HOPS-1}`); `PrivateEdit` touches the
/// issuing thread's own mapping `tm{t}` only.
#[derive(Debug, Clone)]
enum Op {
    /// Compose the span `v{i} → v{j}` through the shared chain.
    ComposeSpan(usize, usize),
    /// Drop cached compositions depending on `m{k}` (content unchanged).
    Invalidate(usize),
    /// Re-register `m{k}` with identical content (a version-preserving
    /// no-op that must not disturb anyone).
    ReAdd(usize),
    /// Flip the thread's private mapping to its other content variant and
    /// compose the private one-link path.
    PrivateEdit,
}

/// The seeded per-thread operation sequence — the same generator drives the
/// concurrent run and the single-threaded replay.
fn thread_ops(thread: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(BASE_SEED + thread as u64);
    (0..OPS_PER_THREAD)
        .map(|_| match rng.gen_range(0..10u32) {
            0..=5 => {
                let i = rng.gen_range(0..HOPS);
                let j = rng.gen_range(i + 1..=HOPS);
                Op::ComposeSpan(i, j)
            }
            6 | 7 => Op::Invalidate(rng.gen_range(0..HOPS)),
            8 => Op::ReAdd(rng.gen_range(0..HOPS)),
            _ => Op::PrivateEdit,
        })
        .collect()
}

/// The shared fixture: one copy chain everyone composes over, plus one
/// private two-schema island per thread.
fn stress_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for i in 0..=HOPS {
        catalog.add_schema(format!("v{i}"), Signature::from_arities([(format!("R{i}"), 1)]));
    }
    for i in 0..HOPS {
        catalog
            .add_mapping(
                format!("m{i}"),
                &format!("v{i}"),
                &format!("v{}", i + 1),
                parse_constraints(&format!("R{i} <= R{}", i + 1)).unwrap(),
            )
            .unwrap();
    }
    for t in 0..THREADS {
        catalog.add_schema(format!("t{t}a"), Signature::from_arities([(format!("P{t}"), 1)]));
        catalog.add_schema(format!("t{t}b"), Signature::from_arities([(format!("Q{t}"), 1)]));
        catalog
            .add_mapping(
                format!("tm{t}"),
                &format!("t{t}a"),
                &format!("t{t}b"),
                parse_constraints(&format!("P{t} <= Q{t}")).unwrap(),
            )
            .unwrap();
    }
    catalog
}

fn private_variant(thread: usize, edits_so_far: usize) -> ConstraintSet {
    // Alternate between two contents so every edit genuinely bumps the
    // version; starts at the non-initial variant.
    if edits_so_far.is_multiple_of(2) {
        parse_constraints(&format!("project[0](P{thread}) <= Q{thread}")).unwrap()
    } else {
        parse_constraints(&format!("P{thread} <= Q{thread}")).unwrap()
    }
}

fn render_compose(result: &mapping_composition::catalog::ChainResult) -> String {
    format!(
        "path={:?} complete={} residual={:?} constraints={}",
        result.chain.path,
        result.is_complete(),
        result.chain.residual.names(),
        result.chain.mapping.constraints
    )
}

/// Apply one op through a session; returns the outcome line. The
/// concurrent run and the sequential replay both go through here.
fn apply_shared(session: &SharedSession, thread: usize, op: &Op, edits: &mut usize) -> String {
    match op {
        Op::ComposeSpan(i, j) => {
            let result = session.compose_path(&format!("v{i}"), &format!("v{j}")).unwrap();
            format!("compose v{i}->v{j} {}", render_compose(&result))
        }
        Op::Invalidate(k) => {
            session.invalidate(&format!("m{k}"));
            format!("invalidate m{k}")
        }
        Op::ReAdd(k) => {
            let version = session
                .add_mapping(
                    format!("m{k}"),
                    &format!("v{k}"),
                    &format!("v{}", k + 1),
                    parse_constraints(&format!("R{k} <= R{}", k + 1)).unwrap(),
                )
                .unwrap();
            format!("readd m{k} v{version}")
        }
        Op::PrivateEdit => {
            let constraints = private_variant(thread, *edits);
            *edits += 1;
            let (version, _) = session.update_mapping(&format!("tm{thread}"), constraints).unwrap();
            let result =
                session.compose_path(&format!("t{thread}a"), &format!("t{thread}b")).unwrap();
            format!("edit tm{thread} v{version} {}", render_compose(&result))
        }
    }
}

fn temp_sidecar(tag: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("mapcomp_concurrent_{}_{tag}.memo", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn concurrent_stress_matches_single_threaded_replay() {
    let catalog = stress_catalog();
    let shared = SharedSession::new(catalog.clone(), THREADS);
    let writer = SidecarWriter::new(temp_sidecar("stress"));

    // Concurrent phase: every thread runs its seeded op sequence against the
    // one shared session, appending its private version line to the shared
    // sidecar after each edit.
    let outcomes: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let shared = &shared;
                let writer = &writer;
                scope.spawn(move || {
                    let mut edits = 0usize;
                    thread_ops(thread)
                        .iter()
                        .map(|op| {
                            let outcome = apply_shared(shared, thread, op, &mut edits);
                            if matches!(op, Op::PrivateEdit) {
                                let entry =
                                    shared.catalog().mapping(&format!("tm{thread}")).unwrap();
                                writer
                                    .append(&VersionManifest::of_mapping(&entry).render())
                                    .unwrap();
                            }
                            outcome
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|handle| handle.join().expect("stress worker panicked")).collect()
    });

    // (a) Byte-identical outcomes under a sequential replay of the same
    // per-thread sequences.
    let replay = SharedSession::new(catalog, 1);
    for (thread, thread_outcomes) in outcomes.iter().enumerate() {
        let mut edits = 0usize;
        for (index, op) in thread_ops(thread).iter().enumerate() {
            let expected = apply_shared(&replay, thread, op, &mut edits);
            assert_eq!(
                thread_outcomes[index],
                expected,
                "thread {thread} (seed {:#x}) op {index} {op:?} diverged from the replay",
                BASE_SEED + thread as u64
            );
        }
    }

    // (b) Version counters agree entry-for-entry, and the merged cache
    // statistics are self-consistent (no lost increments).
    let snapshot = shared.catalog().snapshot();
    let replayed = replay.catalog().snapshot();
    for entry in replayed.mappings() {
        let concurrent = snapshot.mapping(&entry.name).unwrap();
        assert_eq!(concurrent.version, entry.version, "version mismatch on {}", entry.name);
        assert_eq!(concurrent.hash, entry.hash, "hash mismatch on {}", entry.name);
        assert_eq!(concurrent.history, entry.history, "history mismatch on {}", entry.name);
    }
    assert_eq!(snapshot.mapping_count(), replayed.mapping_count());
    let stats = shared.stats();
    assert_eq!(stats.chains_composed, stats.paths_resolved, "every resolved path was composed");
    let cache = stats.cache;
    assert!(
        stats.cache_entries + cache.invalidated + cache.evictions <= cache.insertions,
        "cache ledger out of balance: {cache:?} with {} live entries",
        stats.cache_entries
    );
    assert_eq!(cache.evictions, 0, "unbounded cache must not evict");

    // (c) No lost updates in the sidecar: the last appended line per private
    // mapping carries its final version, and compacting + reloading the full
    // state restores those versions exactly.
    let (manifest, _) = writer.load();
    for thread in 0..THREADS {
        let name = format!("tm{thread}");
        let final_version = snapshot.mapping(&name).unwrap().version;
        if final_version > 1 {
            let (recorded, _) = manifest.mappings[&name];
            assert_eq!(recorded, final_version, "{name}: concurrent appends lost an update");
        }
    }
    writer.rewrite(&save_state(&snapshot, &shared.cache().collect())).unwrap();
    let (compacted, _) = writer.load();
    let document =
        mapping_composition::algebra::parse_document(&snapshot.to_document_string()).unwrap();
    let mut rebuilt = Catalog::new();
    rebuilt.from_document(&document).unwrap();
    rebuilt.restore_versions(&compacted);
    for thread in 0..THREADS {
        let name = format!("tm{thread}");
        assert_eq!(
            rebuilt.mapping(&name).unwrap().version,
            snapshot.mapping(&name).unwrap().version,
            "{name}: compacted sidecar must restore the final version"
        );
    }
    let _ = std::fs::remove_file(writer.path());
}

#[test]
fn parallel_batch_is_deterministic_across_worker_counts() {
    // The same batch over 1, 2 and 4 workers must compose identical content
    // in identical request order.
    let catalog = stress_catalog();
    let requests: Vec<(String, String)> = (0..HOPS)
        .flat_map(|i| ((i + 1)..=HOPS).map(move |j| (format!("v{i}"), format!("v{j}"))))
        .collect();
    let reference: Vec<String> = SharedSession::new(catalog.clone(), 1)
        .compose_batch_parallel(&requests)
        .into_iter()
        .map(|result| render_compose(&result.unwrap()))
        .collect();
    for workers in [2, 4] {
        let session = SharedSession::new(catalog.clone(), workers);
        let rendered: Vec<String> = session
            .compose_batch_parallel(&requests)
            .into_iter()
            .map(|result| render_compose(&result.unwrap()))
            .collect();
        assert_eq!(rendered, reference, "{workers} workers diverged from the 1-worker batch");
    }
}
