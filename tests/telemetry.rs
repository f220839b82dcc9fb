//! Integration tests for the telemetry layer: concurrent registry
//! consistency, and transport equivalence of the metrics surface — the same
//! request sequence must produce the same counters whether the service is
//! called in-process or through the TCP server.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use std::thread;

use mapping_composition::catalog::Catalog;
use mapping_composition::service::{
    Client, EventServer, LocalService, MapcompService, Request, Response,
};
use mapping_composition::telemetry::metrics::{MetricsRegistry, LATENCY_BOUNDS_US};

const DOCUMENT: &str = r"
    schema sigma1 { R/1; }
    schema sigma2 { S/1; }
    schema sigma3 { T/1; }
    mapping m12 : sigma1 -> sigma2 { R <= S; }
    mapping m23 : sigma2 -> sigma3 { S <= T; }
";

/// Deterministic per-thread update schedule: thread `t` performs `rounds`
/// iterations, each bumping a shared counter, a per-thread counter, and
/// observing a value derived from (t, round) into a shared histogram.
fn apply_schedule(registry: &'static MetricsRegistry, thread: u64, rounds: u64) {
    let shared = registry.counter("test_shared_total", "shared across threads", &[]);
    let label = format!("t{thread}");
    let own = registry.counter("test_per_thread_total", "one per thread", &[("thread", &label)]);
    let histogram = registry.histogram("test_values", "observed values", &[], LATENCY_BOUNDS_US);
    for round in 0..rounds {
        shared.incr();
        own.add(thread + 1);
        histogram.observe((thread * 7 + round * 131) % 2_000_000);
    }
}

#[test]
fn concurrent_updates_render_identically_to_a_single_threaded_replay() {
    const THREADS: u64 = 8;
    const ROUNDS: u64 = 500;

    // Concurrent: eight threads hammer one registry.
    let concurrent = MetricsRegistry::new().leak();
    thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || apply_schedule(concurrent, t, ROUNDS));
        }
    });

    // Replay: the same schedule applied serially to a fresh registry.
    let serial = MetricsRegistry::new().leak();
    for t in 0..THREADS {
        apply_schedule(serial, t, ROUNDS);
    }

    // Counters and histogram buckets are all plain atomic adds, so the two
    // renders must be byte-identical — any divergence is a lost update.
    assert_eq!(concurrent.render(), serial.render());
}

/// The request sequence both transports run.
fn workload() -> Vec<Request> {
    vec![
        Request::AddDocument { text: DOCUMENT.into() },
        Request::ComposePath { from: "sigma1".into(), to: "sigma3".into() },
        Request::ComposePath { from: "sigma1".into(), to: "sigma3".into() },
        Request::ComposeNames { names: vec!["m12".into(), "m23".into()] },
        Request::ComposePath { from: "sigma3".into(), to: "sigma1".into() }, // fails: no path
        Request::Stats,
        Request::Ping,
        Request::Ping,
    ]
}

/// Extract the `service_requests_total` and `service_errors_total` samples
/// from a rendered exposition, sorted for comparison.
fn request_counters(text: &str) -> Vec<String> {
    let mut lines: Vec<String> = text
        .lines()
        .filter(|line| {
            (line.starts_with("service_requests_total{")
                || line.starts_with("service_errors_total{"))
                && !line.ends_with(" 0")
        })
        .map(str::to_string)
        .collect();
    lines.sort();
    lines
}

#[test]
fn in_process_and_tcp_transports_report_the_same_request_counters() {
    // Two independent backends with private registries, so the global
    // registry (shared with other tests in this binary) never interferes.
    let local_registry = MetricsRegistry::new().leak();
    let local = LocalService::new(Catalog::new(), 2).with_metrics_registry(local_registry);

    let remote_registry = MetricsRegistry::new().leak();
    let remote = LocalService::new(Catalog::new(), 2).with_metrics_registry(remote_registry);

    // Drive the in-process backend directly.
    let mut local_metrics = String::new();
    for request in workload() {
        let _ = local.call(request);
    }
    if let Ok(Response::Metrics { text }) = local.call(Request::Metrics) {
        local_metrics = text;
    }

    // Drive the other backend through a real TCP server.
    let server = EventServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let mut remote_metrics = String::new();
    thread::scope(|scope| {
        scope.spawn(|| server.run(&remote, 2).unwrap());
        let client = Client::connect(&addr).unwrap();
        for request in workload() {
            let _ = client.call(request);
        }
        if let Ok(Response::Metrics { text }) = client.call(Request::Metrics) {
            remote_metrics = text;
        }
        client.call(Request::Shutdown).unwrap();
    });

    let local_counts = request_counters(&local_metrics);
    assert!(!local_counts.is_empty(), "no request counters in:\n{local_metrics}");
    assert_eq!(
        local_counts,
        request_counters(&remote_metrics),
        "transports disagree\nlocal:\n{local_metrics}\nremote:\n{remote_metrics}"
    );

    // Spot-check absolute values against the workload itself.
    let expect = |line: &str| {
        assert!(local_counts.iter().any(|l| l == line), "missing `{line}` in {local_counts:#?}");
    };
    expect("service_requests_total{kind=\"ping\"} 2");
    expect("service_requests_total{kind=\"compose-path\"} 3");
    expect("service_requests_total{kind=\"add-document\"} 1");
    expect("service_errors_total{kind=\"compose-path\"} 1");
}

#[test]
fn metrics_request_renders_a_parsable_exposition() {
    let registry = MetricsRegistry::new().leak();
    let service = LocalService::new(Catalog::new(), 1).with_metrics_registry(registry);
    service.call(Request::Ping).unwrap();
    let Ok(Response::Metrics { text }) = service.call(Request::Metrics) else {
        panic!("metrics request failed");
    };
    // Every non-comment line is `name{labels} value` or `name value`.
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(!name.is_empty());
        assert!(value.parse::<f64>().is_ok(), "unparsable sample value in line `{line}`");
    }
    assert!(text.contains("# TYPE service_requests_total counter"), "missing TYPE:\n{text}");
    assert!(text.contains("service_request_duration_us_bucket"), "missing histogram:\n{text}");
}
