//! Figure 12 micro-benchmark (new experiment): durability cost of a
//! state-changing service request, incremental append vs. a full rewrite.
//!
//! A persistent `LocalService` is seeded with the Figure 12 chain catalog;
//! the timed body issues one warm `compose-path` request (a cache hit, so
//! the composition itself is free and the measurement isolates the
//! durability path: one small sidecar append), and in the `full-rewrite`
//! case follows it with a compaction (a whole document + sidecar rewrite).
//! The gap should widen linearly with catalog size; `figures fig12` reports
//! the same comparison as bytes written, which is deterministic.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mapcomp_bench::{persistence_document, persistence_sizes, Scale};
use mapcomp_catalog::SessionConfig;
use mapcomp_compose::Registry;
use mapcomp_service::{LocalService, MapcompService as _, PersistPolicy, Request, Response};

fn bench_persistence(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12_persistence");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    let mappings = *persistence_sizes(Scale::Quick).last().expect("non-empty sweep");
    for (label, rewrite) in [("incremental", false), ("full-rewrite", true)] {
        let file = std::env::temp_dir()
            .join(format!("mapcomp_fig12_bench_{}_{label}.doc", std::process::id()));
        let sidecar = mapcomp_service::sidecar_path(&file);
        let _ = std::fs::remove_file(&file);
        let _ = std::fs::remove_file(&sidecar);
        let policy = PersistPolicy { compact_appends: None, compact_bytes: None };
        let service = LocalService::open_with_policy(
            &file,
            Registry::standard(),
            SessionConfig::default(),
            1,
            true,
            policy,
        )
        .expect("open persistent service");
        service
            .call(Request::AddDocument { text: persistence_document(mappings) })
            .expect("seed catalog");
        // Warm the span once so the timed body is pure durability cost.
        let request = Request::ComposePath { from: "pv0".into(), to: "pv2".into() };
        service.call(request.clone()).expect("warm compose");

        group.bench_with_input(BenchmarkId::new(label, mappings), &request, |bencher, request| {
            bencher.iter(|| {
                let hits = match service.call(request.clone()) {
                    Ok(Response::Composed(payload)) => payload.cache_hits,
                    other => panic!("unexpected reply: {other:?}"),
                };
                if rewrite {
                    service.compact().expect("compact");
                }
                hits
            });
        });
        let _ = std::fs::remove_file(&file);
        let _ = std::fs::remove_file(&sidecar);
    }
    group.finish();
}

criterion_group!(benches, bench_persistence);
criterion_main!(benches);
