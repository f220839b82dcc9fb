//! Figure 8 micro-benchmark (new experiment): incremental vs. cold
//! composition-chain recomposition through the mapping catalog.
//!
//! For each chain length an evolution-derived catalog chain is built; the
//! `cold` series folds it in a fresh session every iteration, while the
//! `incremental` series alternates two content-variants of the middle link
//! in a warm session, so every iteration pays invalidation plus the
//! downstream refold only — the steady-state cost of "one spec changed,
//! update the whole data flow".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mapcomp_bench::{chain_fixture, chain_lengths, edited_variant, Scale};
use mapcomp_catalog::SharedSession;

fn bench_chain_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_chain_cache");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for (index, edits) in chain_lengths(Scale::Quick).into_iter().enumerate() {
        let (session, path) = chain_fixture(edits, 9000 + index as u64);
        if path.len() < 2 {
            continue;
        }
        let catalog = session.catalog().snapshot();

        group.bench_with_input(BenchmarkId::new("cold", path.len()), &path, |b, path| {
            b.iter(|| {
                let cold = SharedSession::new(catalog.clone(), 1);
                cold.compose_names(path).expect("composes")
            });
        });

        // Two content-variants of the middle link to alternate between.
        let middle = path[path.len() / 2].clone();
        let base = session.catalog().mapping(&middle).expect("exists").constraints.clone();
        let variant = edited_variant(&session, &middle);
        session.compose_names(&path).expect("warm-up");
        let mut flip = false;
        group.bench_with_input(BenchmarkId::new("incremental", path.len()), &path, |b, path| {
            b.iter(|| {
                flip = !flip;
                let next = if flip { variant.clone() } else { base.clone() };
                session.update_mapping(&middle, next).expect("edit applies");
                session.compose_names(path).expect("composes")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_chain_cache);
criterion_main!(benches);
