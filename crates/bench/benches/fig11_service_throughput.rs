//! Figure 11 micro-benchmark (new experiment): service throughput over
//! loopback TCP.
//!
//! The Figure 10 all-pairs request corpus is driven through a freshly bound
//! loopback server per iteration — requests encoded, framed, decoded,
//! composed by the shared-session backend, and the replies decoded again —
//! with one client connection per server CPU worker. Throughput should rise
//! with worker count up to the machine's core count; the wire round trip is
//! the measured overhead over `fig10`'s in-process batches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mapcomp_bench::{
    concurrent_corpus, connection_sweep_over_loopback, service_batch_over_loopback,
    service_workers, Scale, SWEEP_CPU_WORKERS,
};

fn bench_service_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_service_throughput");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let (catalog, requests) = concurrent_corpus(Scale::Quick);
    for workers in service_workers(Scale::Quick) {
        group.bench_with_input(
            BenchmarkId::new("batch", workers),
            &requests,
            |bencher, requests| {
                bencher.iter(|| {
                    let (outcomes, _elapsed) =
                        service_batch_over_loopback(&catalog, requests, workers);
                    assert!(outcomes.iter().all(|(_, ok)| *ok), "service request failed");
                    outcomes.len()
                });
            },
        );
    }
    group.finish();
}

fn bench_connection_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_connection_sweep");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    // Small connection counts only: criterion re-runs each point many
    // times, so the 1024-connection tier stays in the figures binary.
    let (catalog, requests) = concurrent_corpus(Scale::Quick);
    for connections in [16usize, 64] {
        group.bench_with_input(
            BenchmarkId::new("event", connections),
            &requests,
            |bencher, requests| {
                bencher.iter(|| {
                    let point = connection_sweep_over_loopback(
                        &catalog,
                        requests,
                        connections,
                        SWEEP_CPU_WORKERS,
                    );
                    assert_eq!(point.failures, 0, "sweep request failed");
                    point.requests
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_service_throughput, bench_connection_sweep);
criterion_main!(benches);
