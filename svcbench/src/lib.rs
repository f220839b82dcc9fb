//! Service benchmark for the mapping-composition catalog server.
//!
//! One run drives a release `mapcomp serve` (event engine, one CPU worker
//! per core) over loopback with one of three seeded workloads, checks every
//! reply, and prints one JSON line of metrics:
//!
//! 1. **Set-up**, repeated [`SETUP_REPS`] times on fresh servers: spawn,
//!    load the chains, warm the memo cache or build the migration sessions.
//!    `setup_s` is the median.
//! 2. **Open loop** on the last server: requests due at a fixed rate, each
//!    timed from when it was due (`p50_ms`, `p90_ms`), with the server's
//!    CPU time and sidecar counters read around the phase.
//! 3. **Closed loop**: a fixed number of further requests sent back to back
//!    on one connection (`event.closed_loop_ops_per_s`, reported by the
//!    traced run).
//! 4. **Replay**, off the clock: the same requests served in process through
//!    the server's layer functions ([`replay`]), whose reply frames every
//!    server reply must equal; `migrate` targets are also checked against a
//!    cold chase of the accumulated source.
//!
//! With `--trace 1` the replay records spans, a per-layer table is printed,
//! and the per-layer metrics replace the end-to-end ones in the JSON line.
//! See `svcbench/README.md` for the workloads, the layer-to-metric map and
//! how the sizes were chosen.

pub mod load;
pub mod replay;
pub mod server;
pub mod stats;
pub mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mapcomp_catalog::{ComposedChain, SessionConfig};
use mapcomp_compose::{DifferentialChase, Registry};
use mapcomp_service::wire::{decode_reply, decode_request, encode_reply, encode_request};
use mapcomp_service::{
    ErrorCode, LocalService, MapcompService, PersistPolicy, Request, Response, ServiceError,
};

use crate::load::{closed_loop, open_loop, Conn, Planned, Sample};
use crate::replay::{chase_signatures, fold_history, Counters, Phase, Replay, Span};
use crate::server::Server;
use crate::stats::{median, percentile, ratio};
use crate::workload::{Plan, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The open loop is cut into this many consecutive segments, and its
/// timing metrics are medians over segments, so a burst of interference
/// from outside the benchmark moves one segment, not the figure.
pub const SEGMENTS: usize = 5;

/// Segments of the closed loop, whose capacity figure is the median of
/// their throughputs: more than the open loop's, because its segments are
/// short and swing with the host's scheduling.
pub const CLOSED_SEGMENTS: usize = 10;

/// The second, held-out seed: reserved for confirming a claimed gain on
/// inputs its change was not tuned on.
pub const HELD_OUT_SEED: u64 = 911;

/// Lateness at the 99th percentile beyond which the run is flagged as one
/// whose generator fell behind its schedule, in milliseconds.
const LATE_FLAG_MS: f64 = 5.0;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Open-loop duration in seconds; the closed loop scales with it.
    pub seconds: u64,
    /// Print per-layer metrics from a traced replay instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// The `mapcomp` binary to serve with.
    pub mapcomp: PathBuf,
    /// Scratch directory for catalogs and sidecars.
    pub workdir: PathBuf,
    /// Where to write the traced run's spans, if anywhere.
    pub out: Option<PathBuf>,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// --mapcomp <path> --workdir <dir> [--out <dir>]`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut values: BTreeMap<String, String> = BTreeMap::new();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let name = flag.strip_prefix("--").ok_or_else(|| format!("unexpected `{flag}`"))?;
            let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
            values.insert(name.to_string(), value);
        }
        let take = |name: &str| values.get(name).ok_or_else(|| format!("missing --{name}"));
        let number = |name: &str| -> Result<u64, String> {
            take(name)?.parse().map_err(|_| format!("--{name} must be a whole number"))
        };
        let workload = take("workload")?;
        let args = Args {
            workload: Workload::parse(workload)
                .ok_or_else(|| format!("unknown workload `{workload}`"))?,
            seed: number("seed")?,
            seconds: number("seconds")?.max(1),
            trace: match take("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
            },
            mapcomp: PathBuf::from(take("mapcomp")?),
            workdir: PathBuf::from(take("workdir")?),
            out: values.get("out").map(PathBuf::from),
        };
        if let Some(unknown) = values.keys().find(|name| {
            !["workload", "seed", "seconds", "trace", "mapcomp", "workdir", "out"]
                .contains(&name.as_str())
        }) {
            return Err(format!("unknown flag --{unknown}"));
        }
        Ok(args)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Did every checked reply match its reference?
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed: errors, `busy` sheds, wrong replies and
    /// unconverged migration targets.
    pub failed: u64,
    /// The metrics of the JSON line.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The JSON result line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            let value = if metric.value.is_finite() { metric.value } else { 0.0 };
            let separator = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{separator}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The persistence policy the server runs `workload` under.
pub fn persist_policy(workload: Workload) -> PersistPolicy {
    let mut policy = PersistPolicy::default();
    if let Some(appends) = workload.compact_appends() {
        policy.compact_appends = Some(appends);
    }
    policy
}

/// Replay a whole plan in process and return the replay and its reply
/// frames, in plan order.
pub fn replay_plan(plan: &Plan, dir: &Path, workers: usize, traced: bool) -> (Replay, Vec<String>) {
    let mut replay = Replay::new(dir, persist_policy(plan.workload), workers, traced);
    let mut replies = Vec::new();
    let measured = plan.setup.len();
    let trailing = measured + plan.open.len() + plan.closed.len();
    for (index, op) in plan.all().enumerate() {
        if index == measured {
            replay.set_phase(Phase::Measured);
        }
        if index == trailing {
            replay.set_phase(Phase::Trailing);
        }
        replies.push(replay.handle(index, &encode_request(&op.request)));
    }
    (replay, replies)
}

/// The deterministic counters of a replay, one exact line each.
pub fn counter_lines(counters: &Counters) -> Vec<String> {
    let line = |name: &str, numerator: u64, denominator: u64| {
        format!("counter {name} = {numerator}/{denominator}")
    };
    vec![
        line("compose.calls_per_request", counters.compose_calls, counters.compose_requests),
        line("differential.work_per_batch", counters.batch_work, counters.batches),
        line("differential.fallback_share", counters.fallbacks, counters.batches),
        line("persist.bytes_per_write", counters.append_bytes, counters.appends),
    ]
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
}

/// Assign requests `range` of the plan to connections by chain; open-loop
/// requests get their due offsets at `rate` per second.
fn assign(
    plan: &Plan,
    range: std::ops::Range<usize>,
    rate: Option<f64>,
    conns: usize,
) -> Vec<Vec<Planned>> {
    let mut planned: Vec<Vec<Planned>> = vec![Vec::new(); conns];
    let first = range.start;
    for (index, op) in plan.all().enumerate().skip(first).take(range.len()) {
        let at = rate.map_or(std::time::Duration::ZERO, |rate| {
            std::time::Duration::from_secs_f64((index - first) as f64 / rate)
        });
        planned[op.chain % conns].push(Planned { index, at, frame: encode_request(&op.request) });
    }
    planned
}

/// What the end-to-end part of a run measured.
struct Served {
    setup_s: Vec<f64>,
    replies: Vec<String>,
    open: Vec<Sample>,
    closed: Vec<Sample>,
    /// When the open loop's first request was due.
    start: Instant,
    /// Length of one open-loop segment.
    segment: Duration,
    /// The server's CPU seconds at each open-loop segment boundary.
    cpu_marks: Vec<f64>,
    window: server::Scrape,
    busy_rejected: f64,
    peak_rss_mb: f64,
    /// Wake-up connections the generator opened on the measured server.
    wakeups: usize,
    /// Replies that arrived right after one.
    withheld: usize,
}

/// Set up [`SETUP_REPS`] servers, then measure the last one.
fn serve(plan: &Plan, args: &Args, workers: usize) -> Result<Served, String> {
    let setup = plan.setup.len();
    let open = setup..setup + plan.open.len();
    let closed = open.end..open.end + plan.closed.len();
    let trailing = closed.end..closed.end + plan.trailing.len();
    let setup_planned = assign(plan, 0..setup, None, workers);
    let mut setup_s = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let dir = args.workdir.join(format!("server{rep}"));
        std::fs::create_dir_all(&dir).map_err(|error| error.to_string())?;
        let started = Instant::now();
        let server = Server::spawn(&args.mapcomp, &dir, workers, plan.workload.compact_appends())?;
        let mut conns =
            (0..workers).map(|_| Conn::connect(&server.addr)).collect::<Result<Vec<_>, _>>()?;
        let samples = closed_loop(&mut conns, &setup_planned, 1)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            drop(conns);
            server.shutdown()?;
        } else {
            live = Some((server, conns, samples));
        }
    }
    let (server, mut conns, setup_samples) = live.expect("at least one set-up");
    let open_planned = assign(plan, open, Some(plan.rate), workers);
    // Capacity is taken on one connection: with two, the generator and the
    // server's threads saturate the two cores together and the figure
    // jumps between runs by up to a factor of two.
    let closed_planned = assign(plan, closed, None, 1);
    let trailing_planned = assign(plan, trailing, None, workers);

    let before = server.metrics()?;
    // A short lead so every generator thread is waiting before the first
    // request falls due; the server's CPU time is read at the segment
    // boundaries meanwhile.
    let start = Instant::now() + Duration::from_millis(20);
    let segment = Duration::from_secs_f64(plan.open.len() as f64 / plan.rate / SEGMENTS as f64);
    let (open_samples, cpu_marks) = open_loop(&mut conns, &open_planned, start, || {
        (0..=SEGMENTS)
            .map(|k| {
                let at = start + segment * k as u32;
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                server.cpu_seconds()
            })
            .collect::<Result<Vec<f64>, String>>()
    })?;
    let open_samples: Vec<Sample> = open_samples.concat();
    let cpu_marks = cpu_marks?;
    let after = server.metrics()?;
    let closed_samples = closed_loop(&mut conns[..1], &closed_planned, 1)?;
    let peak_rss_mb = server.peak_rss_mb()?;
    let trailing_samples = closed_loop(&mut conns, &trailing_planned, 1)?;
    let end = server.metrics()?;
    let wakeups = conns.iter().map(|conn| conn.wakeups).sum();
    let withheld = conns.iter().map(|conn| conn.released).sum();
    drop(conns);
    server.shutdown()?;

    let mut replies = vec![String::new(); plan.all().count()];
    let closed_samples = closed_samples.concat();
    let trailing_samples = trailing_samples.concat();
    for sample in setup_samples
        .concat()
        .iter()
        .chain(&open_samples)
        .chain(&closed_samples)
        .chain(&trailing_samples)
    {
        replies[sample.index].clone_from(&sample.reply);
    }
    Ok(Served {
        setup_s,
        replies,
        open: open_samples,
        closed: closed_samples,
        start,
        segment,
        cpu_marks,
        window: after.since(before),
        busy_rejected: end.since(before).busy_rejected,
        peak_rss_mb,
        wakeups,
        withheld,
    })
}

/// The outcome of checking every reply.
#[derive(Debug, Default)]
struct Verdict {
    attempted: u64,
    errors: u64,
    busy: u64,
    wrong: u64,
    unconverged: u64,
    sessions: u64,
    sessions_converged: u64,
    notes: Vec<String>,
}

impl Verdict {
    fn failed(&self) -> u64 {
        self.errors + self.busy + self.wrong + self.unconverged
    }

    fn note(&mut self, text: String) {
        if self.notes.len() < 5 {
            self.notes.push(text);
        }
    }
}

/// Check every server reply against the replay's, and every migration
/// target against a cold chase of its session's accumulated source.
fn verify(plan: &Plan, replies: &[String], reference: &[String], replay: &Replay) -> Verdict {
    let mut verdict = Verdict::default();
    let mut histories: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut chains: BTreeMap<usize, ComposedChain> = BTreeMap::new();
    let mut converged: BTreeMap<usize, bool> = BTreeMap::new();
    let registry = Registry::standard();
    let config = SessionConfig::default().chase_config(None);
    for (index, op) in plan.all().enumerate() {
        verdict.attempted += 1;
        let (got, want) = (&replies[index], &reference[index]);
        let response = match decode_reply(got) {
            Ok(Ok(response)) => response,
            Ok(Err(error)) if error.code == ErrorCode::Busy => {
                verdict.busy += 1;
                continue;
            }
            Ok(Err(error)) => {
                verdict.errors += 1;
                verdict.note(format!("request {index} failed: {error}"));
                continue;
            }
            Err(error) => {
                verdict.wrong += 1;
                verdict.note(format!("request {index}: undecodable reply: {error}"));
                continue;
            }
        };
        match (&op.request, response) {
            (Request::AddDocument { .. }, Response::Added { touched, .. }) => {
                // Catalog-wide counts depend on how the two connections
                // interleave; the touched mappings do not.
                let expected = match decode_reply(want) {
                    Ok(Ok(Response::Added { touched, .. })) => touched,
                    _ => Vec::new(),
                };
                if touched != expected {
                    verdict.wrong += 1;
                    verdict.note(format!(
                        "request {index}: add touched {touched:?}, replay {expected:?}"
                    ));
                }
            }
            (Request::ComposePath { .. }, Response::Composed(payload)) => {
                if got != want {
                    verdict.wrong += 1;
                    verdict
                        .note(format!("request {index}: composed reply differs from the replay"));
                } else if plan.workload == Workload::HotCompose
                    && index >= plan.setup.len()
                    && payload.compose_calls != 0
                {
                    verdict.wrong += 1;
                    verdict.note(format!(
                        "request {index}: hot read composed {} pairs",
                        payload.compose_calls
                    ));
                }
            }
            (Request::MigrateDelta { from, to, updates }, Response::Migrated(payload)) => {
                if got != want {
                    verdict.wrong += 1;
                    verdict
                        .note(format!("request {index}: migrated reply differs from the replay"));
                }
                let history = histories.entry(op.chain).or_default();
                history.extend(updates.iter().cloned());
                let chain = match chains.get(&op.chain) {
                    Some(chain) => chain.clone(),
                    None => match replay.chain(from, to) {
                        Ok(chain) => chains.entry(op.chain).or_insert(chain).clone(),
                        Err(error) => {
                            verdict.wrong += 1;
                            verdict.note(format!(
                                "request {index}: cannot compose {from}->{to}: {error}"
                            ));
                            continue;
                        }
                    },
                };
                let Ok((full, target)) = chase_signatures(&chain) else {
                    verdict.wrong += 1;
                    continue;
                };
                let cold = DifferentialChase::new(
                    chain.mapping.constraints.as_slice(),
                    &full,
                    &target,
                    fold_history(history),
                    &registry,
                    &config,
                );
                let ok = converged.entry(op.chain).or_insert(true);
                if !cold.converged() {
                    verdict.unconverged += 1;
                    *ok = false;
                } else if cold.rendered_target() != payload.target {
                    verdict.wrong += 1;
                    verdict.note(format!("request {index}: target differs from a cold chase"));
                }
            }
            (request, response) => {
                verdict.wrong += 1;
                verdict.note(format!(
                    "request {index}: {} answered with {}",
                    request.kind(),
                    response.kind()
                ));
            }
        }
    }
    verdict.sessions = converged.len() as u64;
    verdict.sessions_converged = converged.values().filter(|ok| **ok).count() as u64;
    verdict
}

/// The end-to-end timing figures of a run, each a median over segments.
struct Timing {
    p50_ms: f64,
    p90_ms: f64,
    ops_per_s: f64,
    cpu_ms_per_op: f64,
    /// Per open-loop segment: p50 and p90 latency, server CPU per request.
    open: Vec<[f64; 3]>,
    /// Per closed-loop segment: requests per second.
    closed: Vec<f64>,
}

fn timing(served: &Served) -> Timing {
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); SEGMENTS];
    for sample in &served.open {
        let offset = sample.due.saturating_duration_since(served.start).as_secs_f64();
        let k = ((offset / served.segment.as_secs_f64()) as usize).min(SEGMENTS - 1);
        latencies[k].push(sample.latency_ms());
    }
    let open: Vec<[f64; 3]> = latencies
        .iter()
        .enumerate()
        .map(|(k, values)| {
            let cpu = served.cpu_marks[k + 1] - served.cpu_marks[k];
            [
                percentile(values, 50.0).unwrap_or(0.0),
                percentile(values, 90.0).unwrap_or(0.0),
                cpu * 1e3 / values.len().max(1) as f64,
            ]
        })
        .collect();
    let closed: Vec<f64> = served
        .closed
        .chunks(served.closed.len().div_ceil(CLOSED_SEGMENTS).max(1))
        .map(|chunk| {
            let first = chunk.first().map_or(served.start, |sample| sample.sent);
            let last = chunk.last().map_or(served.start, |sample| sample.done);
            chunk.len() as f64 / last.duration_since(first).as_secs_f64()
        })
        .collect();
    let column = |i: usize| median(&open.iter().map(|row| row[i]).collect::<Vec<_>>());
    Timing {
        p50_ms: column(0),
        p90_ms: column(1),
        ops_per_s: median(&closed),
        cpu_ms_per_op: column(2),
        open,
        closed,
    }
}

/// Latency percentiles of the open-loop samples whose request is `kind`.
fn latencies(plan: &Plan, samples: &[Sample], kind: &str) -> Vec<f64> {
    let requests: Vec<&Request> = plan.all().map(|op| &op.request).collect();
    samples
        .iter()
        .filter(|sample| requests[sample.index].kind() == kind)
        .map(Sample::latency_ms)
        .collect()
}

fn describe(values: &[f64]) -> String {
    let get = |pct: f64| percentile(values, pct).unwrap_or(0.0);
    format!(
        "n {} p50 {:.3} p90 {:.3} p99 {:.3} max {:.3} ms",
        values.len(),
        get(50.0),
        get(90.0),
        get(99.0),
        get(100.0)
    )
}

/// One row of the per-layer table.
#[derive(Debug, Clone)]
pub struct LayerRow {
    /// Layer (span) name, or `other`.
    pub name: String,
    /// Calls.
    pub calls: usize,
    /// Median self time per call, in microseconds.
    pub median_self_us: f64,
    /// Total self time, in nanoseconds.
    pub total_ns: u64,
}

/// Per-layer self times over the spans of the requests `include` selects.
/// `request` and `service` spans are glue: their self time is `other`.
/// Returns the rows and the traced total (the sum of request spans); the
/// rows' totals add up to it exactly.
pub fn layer_table(spans: &[Span], include: impl Fn(usize) -> bool) -> (Vec<LayerRow>, u64) {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent] += span.end - span.start;
        }
    }
    let mut selfs: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut other: BTreeMap<usize, u64> = BTreeMap::new();
    let mut total = 0;
    for (index, span) in spans.iter().enumerate() {
        if !include(span.request) {
            continue;
        }
        let duration = span.end - span.start;
        let own = duration.saturating_sub(children[index]);
        match span.name {
            "request" => {
                total += duration;
                *other.entry(span.request).or_default() += own;
            }
            "service" => *other.entry(span.request).or_default() += own,
            name => selfs.entry(name).or_default().push(own),
        }
    }
    let row = |name: &str, values: Vec<u64>| {
        let micros: Vec<f64> = values.iter().map(|&ns| ns as f64 / 1e3).collect();
        LayerRow {
            name: name.to_string(),
            calls: values.len(),
            median_self_us: median(&micros),
            total_ns: values.iter().sum(),
        }
    };
    let mut rows: Vec<LayerRow> =
        selfs.into_iter().map(|(name, values)| row(name, values)).collect();
    rows.push(row("other", other.into_values().collect()));
    (rows, total)
}

fn render_table(workload: Workload, rows: &[LayerRow], total: u64, requests: usize) -> Vec<String> {
    let mut lines = vec![format!(
        "traced run: {}, {requests} requests, {:.3} ms traced, {:.1} us per request",
        workload.name(),
        total as f64 / 1e6,
        ratio(total, requests as u64) / 1e3
    )];
    lines.push(format!(
        "{:<24} {:>8} {:>16} {:>12} {:>7}",
        "layer", "calls", "median self us", "total ms", "share"
    ));
    for row in rows {
        lines.push(format!(
            "{:<24} {:>8} {:>16.2} {:>12.3} {:>6.1}%",
            row.name,
            row.calls,
            row.median_self_us,
            row.total_ns as f64 / 1e6,
            100.0 * ratio(row.total_ns, total)
        ));
    }
    let sum: u64 = rows.iter().map(|row| row.total_ns).sum();
    lines.push(format!(
        "{:<24} {:>8} {:>16} {:>12.3} {:>6.1}%  (rows sum to the traced total: {})",
        "total",
        requests,
        "",
        sum as f64 / 1e6,
        100.0 * ratio(sum, total),
        if sum == total { "yes" } else { "NO" }
    ));
    lines
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut text = String::from("request\tspan\tname\tstart_ns\tend_ns\tparent\n");
    for (index, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or_else(|| "-".to_string(), |parent| parent.to_string());
        let _ = writeln!(
            text,
            "{}\t{index}\t{}\t{}\t{}\t{parent}",
            span.request, span.name, span.start, span.end
        );
    }
    std::fs::write(path, text).map_err(|error| format!("cannot write {}: {error}", path.display()))
}

/// Median time of an in-process `LocalService::call` over the open-loop
/// requests, after replaying set-up into a fresh persisted service. Its
/// replies are checked like the server's.
fn local_call_ms(
    plan: &Plan,
    dir: &Path,
    workers: usize,
    reference: &[String],
) -> Result<(f64, u64), String> {
    std::fs::create_dir_all(dir).map_err(|error| error.to_string())?;
    let service = LocalService::open_with_policy(
        dir.join("catalog.txt"),
        Registry::standard(),
        SessionConfig::default(),
        workers,
        true,
        persist_policy(plan.workload),
    )
    .map_err(|error| error.to_string())?;
    let mut times = Vec::new();
    let mut mismatches = 0;
    let measured = plan.setup.len()..plan.setup.len() + plan.open.len();
    for (index, op) in plan.all().enumerate().take(measured.end) {
        // Decoded outside the timing, as the event loop decodes before
        // handing the request to a worker.
        let request = decode_request(&encode_request(&op.request)).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let reply: Result<Response, ServiceError> = service.call(request);
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        if measured.contains(&index) {
            times.push(elapsed);
            let compared = !matches!(op.request, Request::AddDocument { .. });
            if compared && encode_reply(&reply) != reference[index] {
                mismatches += 1;
            }
        }
    }
    Ok((median(&times), mismatches))
}

/// Run the benchmark: print the human-readable report lines to stdout and
/// return the outcome whose JSON line ends the output.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let workers = workers();
    let plan = Plan::generate(args.workload, args.seed, args.seconds);
    let served = serve(&plan, args, workers)?;

    let replay_dir = args.workdir.join("replay");
    std::fs::create_dir_all(&replay_dir).map_err(|error| error.to_string())?;
    let (replay, reference) = replay_plan(&plan, &replay_dir, workers, args.trace);
    let mut verdict = verify(&plan, &served.replies, &reference, &replay);

    println!(
        "workload {} seed {} (held-out seed {HELD_OUT_SEED}), {} chains, {} set-up / {} open-loop at {} req/s / {} closed-loop / {} trailing requests, {workers} workers and connections",
        plan.workload.name(),
        args.seed,
        plan.chains.len(),
        plan.setup.len(),
        plan.open.len(),
        plan.rate,
        plan.closed.len(),
        plan.trailing.len()
    );
    let all: Vec<f64> = served.open.iter().map(Sample::latency_ms).collect();
    let lateness: Vec<f64> = served.open.iter().map(Sample::lateness_ms).collect();
    println!("latency all           : {}", describe(&all));
    for kind in ["compose-path", "add-document", "migrate-delta"] {
        let values = latencies(&plan, &served.open, kind);
        if !values.is_empty() {
            println!("latency {kind:<14}: {}", describe(&values));
        }
    }
    let late_p99 = percentile(&lateness, 99.0).unwrap_or(0.0);
    println!(
        "generator lateness    : {}{}",
        describe(&lateness),
        if late_p99 > LATE_FLAG_MS {
            format!("  FLAG: generator fell behind its schedule (p99 > {LATE_FLAG_MS} ms)")
        } else {
            String::new()
        }
    );
    println!(
        "set-up                : {:?} s; {} compactions in the open loop",
        served.setup_s.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>(),
        served.window.compactions
    );
    let timing = timing(&served);
    for (k, row) in timing.open.iter().enumerate() {
        println!(
            "open-loop segment {k}   : p50 {:.3} ms, p90 {:.3} ms, server CPU {:.3} ms per request",
            row[0], row[1], row[2]
        );
    }
    println!(
        "closed-loop segments  : {:?} req/s",
        timing.closed.iter().map(|ops| format!("{ops:.1}")).collect::<Vec<_>>()
    );
    println!(
        "event-loop wake-ups   : {} opened, {} replies arrived within 0.3 ms of one{}",
        served.wakeups,
        served.withheld,
        if served.withheld > 0 {
            "  FLAG: the server may have withheld finished replies until woken"
        } else {
            ""
        }
    );
    let round_trips: Vec<f64> = served.closed.iter().map(Sample::wire_ms).collect();
    println!("closed-loop round trip: {}", describe(&round_trips));

    for line in counter_lines(&replay.measured) {
        println!("{line}");
    }

    let mut metrics = Vec::new();
    let mut metric = |name: &'static str, value: f64, unit: &'static str| {
        metrics.push(Metric { name, value, unit });
    };
    if args.trace {
        let (local_ms, mismatches) =
            local_call_ms(&plan, &args.workdir.join("local"), workers, &reference)?;
        if mismatches > 0 {
            verdict.wrong += mismatches;
            verdict.note(format!("{mismatches} in-process replies differ from the replay"));
        }
        let spans = replay.spans();
        let setup = plan.setup.len();
        let trailing = setup + plan.open.len() + plan.closed.len();
        let (rows, total) = layer_table(&spans, |request| (setup..trailing).contains(&request));
        let requests = plan.open.len() + plan.closed.len();
        for line in render_table(plan.workload, &rows, total, requests) {
            println!("{line}");
        }
        if let Some(out) = &args.out {
            std::fs::create_dir_all(out).map_err(|error| error.to_string())?;
            write_spans(
                &out.join(format!("spans-{}-{}.tsv", plan.workload.name(), args.seed)),
                &spans,
            )?;
        }
        let layer = |name: &str| {
            rows.iter().find(|row| row.name == name).map_or(0.0, |row| row.median_self_us)
        };
        let (build_rows, _) = layer_table(&spans, |request| request < setup);
        let build_us = build_rows
            .iter()
            .find(|row| row.name == "differential.build")
            .map_or(0.0, |row| row.median_self_us);
        let c = &replay.measured;
        let wire_p50 = median(&served.open.iter().map(Sample::wire_ms).collect::<Vec<_>>());
        let op = |kind: &str, pct: f64| {
            percentile(&latencies(&plan, &served.open, kind), pct).unwrap_or(0.0)
        };
        metric("chain.compose_names_us", layer("chain.compose_names"), "us");
        metric("chain.links_per_request", ratio(c.links, c.compose_requests), "count");
        metric("cache.hit_share", ratio(c.cache_hits, c.cache_hits + c.compose_calls), "share");
        metric("graph.resolve_us", layer("graph.resolve"), "us");
        metric("render.chain_us", layer("render.chain"), "us");
        metric("wire.decode_request_us", layer("wire.decode_request"), "us");
        metric("wire.encode_reply_us", layer("wire.encode_reply"), "us");
        metric("wire.reply_bytes", ratio(c.reply_bytes, c.requests), "B");
        metric("compose.calls_per_request", ratio(c.compose_calls, c.compose_requests), "count");
        metric("compose.pair_us", layer("compose.pair"), "us");
        metric("parse.document_us", layer("parse.document"), "us");
        metric("ingest.validate_us", layer("ingest.validate"), "us");
        metric("ingest.apply_us", layer("ingest.apply"), "us");
        metric("persist.append_us", layer("persist.append"), "us");
        metric("persist.compact_us", layer("persist.compact"), "us");
        metric("persist.bytes_per_write", ratio(c.append_bytes, c.appends), "B");
        metric("parse.updates_us", layer("parse.updates"), "us");
        metric("differential.apply_us", layer("differential.apply"), "us");
        metric("differential.work_per_batch", ratio(c.batch_work, c.batches), "count");
        metric("differential.fallback_share", ratio(c.fallbacks, c.batches), "share");
        metric("differential.build_us", build_us, "us");
        metric(
            "differential.converged_share",
            ratio(verdict.sessions_converged, verdict.sessions),
            "share",
        );
        metric("render.target_us", layer("render.target"), "us");
        metric("render.target_bytes", ratio(c.target_bytes, c.batches), "B");
        println!("loopback p50 {wire_p50:.3} ms (send to reply), in-process LocalService::call p50 {local_ms:.3} ms");
        metric("event.overhead_us", (wire_p50 - local_ms) * 1e3, "us");
        metric("event.busy_rejected", served.busy_rejected, "count");
        metric("event.withheld_replies", served.withheld as f64, "count");
        metric("event.closed_loop_ops_per_s", timing.ops_per_s, "1/s");
        metric("op.compose_p50_ms", op("compose-path", 50.0), "ms");
        metric("op.compose_p90_ms", op("compose-path", 90.0), "ms");
        metric("op.add_p50_ms", op("add-document", 50.0), "ms");
        metric("op.add_p90_ms", op("add-document", 90.0), "ms");
        metric("op.migrate_p50_ms", op("migrate-delta", 50.0), "ms");
        metric("op.migrate_p90_ms", op("migrate-delta", 90.0), "ms");
        metric("op.failed_share", ratio(verdict.failed(), verdict.attempted), "share");
    } else {
        metric("setup_s", median(&served.setup_s), "s");
        metric("p50_ms", timing.p50_ms, "ms");
        metric("p90_ms", timing.p90_ms, "ms");
        metric("server_cpu_ms_per_op", timing.cpu_ms_per_op, "ms");
        metric(
            "persist_bytes_per_write",
            served.window.append_bytes / served.window.appends.max(1.0),
            "B",
        );
        metric("peak_rss_mb", served.peak_rss_mb, "MB");
    }
    println!(
        "checks                : {} attempted, {} errors, {} busy, {} wrong, {} unconverged targets; failed share {:.6}; {}/{} sessions converged",
        verdict.attempted,
        verdict.errors,
        verdict.busy,
        verdict.wrong,
        verdict.unconverged,
        ratio(verdict.failed(), verdict.attempted),
        verdict.sessions_converged,
        verdict.sessions
    );
    for note in &verdict.notes {
        println!("check failed          : {note}");
    }
    Ok(Outcome {
        correct: verdict.wrong == 0,
        attempted: verdict.attempted,
        failed: verdict.failed(),
        metrics,
    })
}
