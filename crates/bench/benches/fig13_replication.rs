//! Figure 13 micro-benchmark: the cost of the replication seam on the
//! leader's write path.
//!
//! A warm state-changing `compose-path` request is timed on an incremental
//! leader twice — once plain, once with replication enabled and one live
//! streaming follower attached over loopback. The delta between the two is
//! what publication to the hub (and waking the event loop that fans the
//! chunk out) adds to every write; it should be small and flat, since the
//! publication happens under the persistence mutex the append already
//! holds. `figures fig13` reports the follower-side numbers (catch-up
//! time, read scaling), which are deterministic where these are not.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mapcomp_bench::persistence_document;
use mapcomp_catalog::SessionConfig;
use mapcomp_compose::Registry;
use mapcomp_service::{
    sidecar_path, Client, EventServer, Follower, LocalService, MapcompService as _, PersistPolicy,
    Request, Response,
};

const CHAIN: usize = 12;

fn temp_file(tag: &str) -> std::path::PathBuf {
    let file =
        std::env::temp_dir().join(format!("mapcomp_fig13_bench_{tag}_{}.doc", std::process::id()));
    cleanup(&file);
    file
}

fn cleanup(file: &std::path::Path) {
    let sidecar = sidecar_path(file);
    let mut lock = sidecar.clone().into_os_string();
    lock.push(".lock");
    for stale in [file.to_path_buf(), sidecar, lock.into()] {
        let _ = std::fs::remove_file(stale);
    }
}

fn open_leader(file: &std::path::Path) -> LocalService {
    let policy = PersistPolicy { compact_appends: None, compact_bytes: None };
    let service = LocalService::open_with_policy(
        file,
        Registry::standard(),
        SessionConfig::default(),
        1,
        true,
        policy,
    )
    .expect("open persistent service");
    service.call(Request::AddDocument { text: persistence_document(CHAIN) }).expect("seed catalog");
    service
}

fn warm_request(service: &LocalService) -> Request {
    let request = Request::ComposePath { from: "pv0".into(), to: "pv2".into() };
    service.call(request.clone()).expect("warm compose");
    request
}

fn timed_call(service: &LocalService, request: &Request) -> usize {
    match service.call(request.clone()) {
        Ok(Response::Composed(payload)) => payload.cache_hits,
        other => panic!("unexpected reply: {other:?}"),
    }
}

fn bench_replication(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13_replication");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    // Baseline: the same warm write on a leader that is not replicating.
    {
        let file = temp_file("plain");
        let service = open_leader(&file);
        let request = warm_request(&service);
        group.bench_with_input(
            BenchmarkId::new("no-replication", CHAIN),
            &request,
            |bencher, request| bencher.iter(|| timed_call(&service, request)),
        );
        cleanup(&file);
    }

    // The same write while one follower streams the log live.
    {
        let leader_file = temp_file("leader");
        let follower_file = temp_file("follower");
        let service = open_leader(&leader_file);
        service.enable_replication().expect("enable replication");
        let server = EventServer::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = server.local_addr().expect("bound address").to_string();
        let follower = Follower::open(
            &follower_file,
            addr.as_str(),
            Registry::standard(),
            SessionConfig::default(),
            1,
            None,
        )
        .expect("open follower");
        std::thread::scope(|scope| {
            let (server, service, addr, follower) = (&server, &service, addr.as_str(), &follower);
            scope.spawn(move || server.run(service, 1).expect("leader server run"));
            let apply = scope.spawn(move || follower.run());
            let target = service.replication_hub().expect("replicating leader").position();
            while follower.status().state != "streaming" || follower.status().position < target {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let request = warm_request(service);
            group.bench_with_input(
                BenchmarkId::new("replicating-1-follower", CHAIN),
                &request,
                |bencher, request| bencher.iter(|| timed_call(service, request)),
            );
            follower.stop();
            apply.join().expect("apply thread").expect("apply loop");
            let closer = Client::connect(addr).expect("connect for shutdown");
            closer.call(Request::Shutdown).expect("shutdown accepted");
        });
        cleanup(&leader_file);
        cleanup(&follower_file);
    }
    group.finish();
}

criterion_group!(benches, bench_replication);
criterion_main!(benches);
