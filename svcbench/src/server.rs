//! The server under test: a release `mapcomp serve` child process on the
//! event engine, and what the benchmark reads from outside it — CPU time
//! and peak memory from `/proc/<pid>`, counters from its `metrics` reply.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use mapcomp_service::{Client, Request, Response};

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields (`USER_HZ`,
/// which Linux fixes at 100 on every mainstream architecture).
const TICKS_PER_SECOND: f64 = 100.0;

/// A running `mapcomp serve`. Dropping it kills the process and waits for
/// it; [`Server::shutdown`] stops it cleanly.
pub struct Server {
    child: Child,
    /// Held open so the server's stdout never hits a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// The loopback address it listens on.
    pub addr: String,
}

impl Server {
    /// Spawn `binary serve` over a fresh catalog in `dir`, with `workers`
    /// CPU workers, and wait for its `listening on` line.
    pub fn spawn(
        binary: &Path,
        dir: &Path,
        workers: usize,
        compact_appends: Option<usize>,
    ) -> Result<Server, String> {
        let mut command = Command::new(binary);
        command
            .arg("serve")
            .arg("--catalog")
            .arg(dir.join("catalog.txt"))
            .args(["--addr", "127.0.0.1:0", "--engine", "event"])
            .args(["--workers", &workers.to_string()]);
        if let Some(appends) = compact_appends {
            command.args(["--compact-appends", &appends.to_string()]);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|error| format!("cannot start {}: {error}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server { child, stdout: BufReader::new(stdout), addr: String::new() };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|error| format!("cannot read the server's address: {error}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("server did not announce its address (got {line:?})"))?
            .to_string();
        Ok(server)
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU time the server has used so far, in seconds.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|error| format!("cannot read the server's stat: {error}"))?;
        // Fields after the parenthesised command name start at field 3;
        // utime and stime are fields 14 and 15.
        let rest = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or_default();
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |index: usize| -> Result<f64, String> {
            fields
                .get(index)
                .and_then(|value| value.parse::<f64>().ok())
                .ok_or_else(|| "malformed /proc stat line".to_string())
        };
        Ok((field(11)? + field(12)?) / TICKS_PER_SECOND)
    }

    /// Peak resident memory so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|error| format!("cannot read the server's status: {error}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|value| value.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM line in the server's status".to_string())
    }

    /// Scrape the server's metrics registry.
    pub fn metrics(&self) -> Result<Scrape, String> {
        let client = Client::connect(&self.addr).map_err(|error| error.to_string())?;
        match client.call(Request::Metrics).map_err(|error| error.to_string())? {
            Response::Metrics { text } => Ok(Scrape::parse(&text)),
            other => Err(format!("unexpected reply to metrics: {}", other.kind())),
        }
    }

    /// Ask the server to persist and exit, and wait until it has.
    pub fn shutdown(mut self) -> Result<(), String> {
        let client = Client::connect(&self.addr).map_err(|error| error.to_string())?;
        client.call(Request::Shutdown).map_err(|error| error.to_string())?;
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not stop within 60 s".to_string()),
                Err(error) => return Err(error.to_string()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The counters the benchmark reads from a `metrics` reply.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrape {
    /// `persist_appends_total`.
    pub appends: f64,
    /// `persist_append_bytes_total`.
    pub append_bytes: f64,
    /// `persist_compactions_total`.
    pub compactions: f64,
    /// `server_busy_rejected_total`.
    pub busy_rejected: f64,
}

impl Scrape {
    fn parse(text: &str) -> Scrape {
        let value = |name: &str| -> f64 {
            text.lines()
                .filter(|line| !line.starts_with('#'))
                .filter_map(|line| line.split_once(' '))
                .filter(|(key, _)| *key == name || key.starts_with(&format!("{name}{{")))
                .filter_map(|(_, value)| value.trim().parse::<f64>().ok())
                .sum()
        };
        Scrape {
            appends: value("persist_appends_total"),
            append_bytes: value("persist_append_bytes_total"),
            compactions: value("persist_compactions_total"),
            busy_rejected: value("server_busy_rejected_total"),
        }
    }

    /// Counter increments since `earlier`.
    pub fn since(self, earlier: Scrape) -> Scrape {
        Scrape {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            compactions: self.compactions - earlier.compactions,
            busy_rejected: self.busy_rejected - earlier.busy_rejected,
        }
    }
}
