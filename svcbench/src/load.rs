//! The load generator: one thread and one connection per server worker,
//! speaking the wire protocol directly so requests can be pipelined.
//!
//! The open loop sends each request when it is due, whether or not earlier
//! replies have arrived, and times it from when it was due: a stall shows
//! as latency on every request queued behind it. The closed loop keeps a
//! fixed number of requests in flight on a connection, sending the next as
//! soon as a reply arrives.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long a connection may wait for a reply before the run fails.
const STALL: Duration = Duration::from_secs(30);

/// Silence, with replies outstanding, after which the generator opens and
/// closes a connection to the server to wake its event loop. The event
/// loop's poller can lose a completion wake-up (the notify flag is reset
/// before the eventfd is drained, so a notify landing in between is eaten
/// and every later one is suppressed); from then on, finished replies wait
/// until some socket event wakes the loop. The time they waited is charged
/// to their latency, and replies released by a wake-up are counted.
const WAKE_AFTER: Duration = Duration::from_millis(50);

/// A reply arriving this soon after a wake-up connection is counted as
/// released by it (a slow reply can also finish then by coincidence).
const RELEASE_WINDOW: Duration = Duration::from_micros(300);

/// One client connection with its receive buffer.
pub struct Conn {
    stream: TcpStream,
    addr: String,
    buf: Vec<u8>,
    scanned: usize,
    /// Last send or receive.
    active: Instant,
    /// Last wake-up connection.
    woke: Option<Instant>,
    /// Wake-up connections opened.
    pub wakeups: usize,
    /// Replies that arrived within [`RELEASE_WINDOW`] of a wake-up
    /// connection.
    pub released: usize,
}

/// What the generator observed for one request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request in plan order (`Plan::all`).
    pub index: usize,
    /// When it was due to be sent.
    pub due: Instant,
    /// When the generator began writing it to the socket.
    pub sent: Instant,
    /// When its whole reply had arrived.
    pub done: Instant,
    /// The reply frame.
    pub reply: String,
}

impl Sample {
    /// Latency from when the request was due, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64() * 1e3
    }

    /// Latency from when the request was sent, in milliseconds.
    pub fn wire_ms(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request, in milliseconds.
    pub fn lateness_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// A request assigned to a connection: its plan index, the offset from the
/// start of the phase at which it is due (open loop only), and its frame.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Index in plan order (`Plan::all`).
    pub index: usize,
    /// When it is due, relative to the phase start.
    pub at: Duration,
    /// The encoded request frame.
    pub frame: String,
}

impl Conn {
    /// Connect to the server.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr)
            .map_err(|error| format!("cannot connect to {addr}: {error}"))?;
        stream.set_nodelay(true).map_err(|error| error.to_string())?;
        Ok(Conn {
            stream,
            addr: addr.to_string(),
            buf: Vec::new(),
            scanned: 0,
            active: Instant::now(),
            woke: None,
            wakeups: 0,
            released: 0,
        })
    }

    /// Split the next complete reply frame off the receive buffer. Frames
    /// end with an `end` line, and no field line can be exactly `end`.
    fn take_frame(&mut self) -> Option<String> {
        const END: &[u8] = b"\nend\n";
        let from = self.scanned.saturating_sub(END.len());
        let found = self.buf[from..].windows(END.len()).position(|window| window == END);
        match found {
            Some(offset) => {
                let cut = from + offset + END.len();
                let rest = self.buf.split_off(cut);
                let frame = std::mem::replace(&mut self.buf, rest);
                self.scanned = 0;
                Some(String::from_utf8_lossy(&frame).into_owned())
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// Wait up to `timeout` for bytes and return every reply completed by
    /// them, stamped with their arrival time. Called only while replies are
    /// outstanding.
    fn receive(&mut self, timeout: Duration) -> Result<Vec<(String, Instant)>, String> {
        if let Some(frame) = self.take_frame() {
            return Ok(vec![(frame, Instant::now())]);
        }
        let now = Instant::now();
        if now.duration_since(self.active) > STALL {
            return Err(format!(
                "no reply for {} s despite {} wake-ups ({} bytes buffered)",
                STALL.as_secs(),
                self.wakeups,
                self.buf.len()
            ));
        }
        let poked = self.woke.map_or(self.active, |woke| woke.max(self.active));
        if now.duration_since(poked) >= WAKE_AFTER {
            // Connect and close: the accept alone wakes the event loop.
            drop(
                TcpStream::connect(&self.addr)
                    .map_err(|error| format!("wake-up failed: {error}"))?,
            );
            self.woke = Some(now);
            self.wakeups += 1;
        }
        let timeout = timeout.min(WAKE_AFTER);
        // A socket read timeout would do, but the kernel rounds it up to
        // whole scheduler ticks (milliseconds late); `ppoll` sleeps on a
        // high-resolution timer, so a reply arriving and a request falling
        // due both wake the generator within microseconds.
        let readable = sys::wait_readable(self.stream.as_raw_fd(), timeout)
            .map_err(|error| format!("poll failed: {error}"))?;
        if !readable {
            return Ok(Vec::new());
        }
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(read) => {
                let at = Instant::now();
                self.active = at;
                self.buf.extend_from_slice(&chunk[..read]);
                let mut frames = Vec::new();
                while let Some(frame) = self.take_frame() {
                    frames.push((frame, at));
                }
                if self.woke.is_some_and(|woke| at.duration_since(woke) < RELEASE_WINDOW) {
                    self.released += frames.len();
                }
                Ok(frames)
            }
            Err(error) if matches!(error.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Ok(Vec::new())
            }
            Err(error) if error.kind() == ErrorKind::Interrupted => Ok(Vec::new()),
            Err(error) => Err(format!("receive failed: {error}")),
        }
    }

    fn send(&mut self, frame: &str) -> Result<(), String> {
        self.active = Instant::now();
        self.stream.write_all(frame.as_bytes()).map_err(|error| format!("send failed: {error}"))
    }

    /// Send requests on their schedule from `start` and collect every
    /// reply.
    fn open_loop(&mut self, start: Instant, planned: &[Planned]) -> Result<Vec<Sample>, String> {
        let mut samples: Vec<Sample> = Vec::with_capacity(planned.len());
        let mut sent: Vec<Instant> = Vec::with_capacity(planned.len());
        let mut next = 0;
        while samples.len() < planned.len() {
            let now = Instant::now();
            if next < planned.len() && now >= start + planned[next].at {
                // Stamped before the write: the server may run on this
                // core as soon as the bytes land and keep the generator
                // off it until the request is done.
                sent.push(now);
                self.send(&planned[next].frame)?;
                next += 1;
                continue;
            }
            let wait = match planned.get(next) {
                Some(request) => (start + request.at).saturating_duration_since(now),
                None => Duration::from_millis(100),
            };
            if sent.len() == samples.len() {
                std::thread::sleep(wait);
                continue;
            }
            for (reply, done) in self.receive(wait)? {
                let request = &planned[samples.len()];
                samples.push(Sample {
                    index: request.index,
                    due: start + request.at,
                    sent: sent[samples.len()],
                    done,
                    reply,
                });
            }
        }
        Ok(samples)
    }

    /// Keep up to `window` requests in flight, sending the next as soon as
    /// a reply arrives.
    fn closed_loop(&mut self, planned: &[Planned], window: usize) -> Result<Vec<Sample>, String> {
        let mut samples: Vec<Sample> = Vec::with_capacity(planned.len());
        let mut sent: Vec<Instant> = Vec::with_capacity(planned.len());
        while samples.len() < planned.len() {
            if sent.len() < planned.len() && sent.len() - samples.len() < window.max(1) {
                sent.push(Instant::now());
                self.send(&planned[sent.len() - 1].frame)?;
                continue;
            }
            for (reply, done) in self.receive(Duration::from_millis(100))? {
                let index = samples.len();
                let at = sent[index];
                samples.push(Sample {
                    index: planned[index].index,
                    due: at,
                    sent: at,
                    done,
                    reply,
                });
            }
        }
        Ok(samples)
    }
}

/// Run an open loop from `start`: each connection sends its share of the
/// requests on schedule, one thread per connection, while the calling
/// thread runs `observe` (which sees no traffic of its own). Samples come
/// back per connection, with what `observe` returned.
pub fn open_loop<T: Send>(
    conns: &mut [Conn],
    planned: &[Vec<Planned>],
    start: Instant,
    observe: impl FnOnce() -> T,
) -> Result<(Vec<Vec<Sample>>, T), String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(planned)
            .map(|(conn, planned)| scope.spawn(move || conn.open_loop(start, planned)))
            .collect();
        let observed = observe();
        let samples = handles
            .into_iter()
            .map(|handle| handle.join().map_err(|_| "generator thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()?;
        Ok((samples, observed))
    })
}

/// Run a closed loop on every connection at once, each keeping up to
/// `window` requests in flight; returns the samples per connection.
pub fn closed_loop(
    conns: &mut [Conn],
    planned: &[Vec<Planned>],
    window: usize,
) -> Result<Vec<Vec<Sample>>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(planned)
            .map(|(conn, planned)| scope.spawn(move || conn.closed_loop(planned, window)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().map_err(|_| "generator thread panicked".to_string())?)
            .collect()
    })
}

/// The one system call the standard library does not wrap: `ppoll`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::os::fd::RawFd;
    use std::time::Duration;

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const POLLIN: i16 = 0x001;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }

    /// Wait until `fd` is readable (or hung up) or `timeout` has passed;
    /// returns whether it is readable.
    pub fn wait_readable(fd: RawFd, timeout: Duration) -> std::io::Result<bool> {
        let mut poll_fd = PollFd { fd, events: POLLIN, revents: 0 };
        let timeout = Timespec {
            tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `poll_fd` and `timeout` are live, exclusively borrowed
        // `#[repr(C)]` values laid out as the kernel's `struct pollfd` and
        // 64-bit `struct timespec`; `nfds` is 1, matching the single entry;
        // a null signal mask leaves the thread's mask unchanged. `ppoll`
        // only writes `revents` and keeps no pointer past the call.
        let ready = unsafe { ppoll(&mut poll_fd, 1, &timeout, std::ptr::null()) };
        if ready < 0 {
            let error = std::io::Error::last_os_error();
            return if error.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(error)
            };
        }
        Ok(ready > 0)
    }
}
