//! Offline stand-in for the [`polling`](https://crates.io/crates/polling)
//! crate: portable readiness events over raw `epoll`/`poll` FFI.
//!
//! The build environment for this workspace has no network access, so the
//! external readiness-polling dependency is replaced by this shim. It
//! implements the small API surface the workspace's event-loop server
//! needs — a [`Poller`] that file descriptors register with, a level-
//! triggered [`Poller::wait`] returning [`Event`]s, and a [`Poller::notify`]
//! wake-up usable from any thread — over hand-written `extern "C"`
//! declarations (the `libc` crate is likewise unavailable; the symbols
//! resolve against the C library `std` already links).
//!
//! Backends:
//!
//! * Linux — `epoll` (`epoll_create1`/`epoll_ctl`/`epoll_wait`) with an
//!   `eventfd` as the notify source, so one poller scales to thousands of
//!   registered sockets.
//! * other unix — `poll(2)` over a registration table, with a non-blocking
//!   self-pipe as the notify source.
//!
//! Semantics are deliberately narrower than the real crate: registrations
//! are level-triggered, keys are plain `usize` values chosen by the caller
//! (the reserved key [`NOTIFY_KEY`] is never surfaced), and the caller is
//! responsible for deregistering a descriptor before closing it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::io;
use std::time::Duration;

/// Raw file-descriptor type (mirrors `std::os::fd::RawFd` without requiring
/// the unix-only module in this crate's public signatures).
pub type RawFd = i32;

/// The key reserved for the poller's internal notify descriptor; user
/// registrations must not use it and [`Poller::wait`] never reports it.
pub const NOTIFY_KEY: usize = usize::MAX;

/// One readiness event: which registration fired and in which directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The caller-chosen key the descriptor was registered under.
    pub key: usize,
    /// The descriptor is readable (or has hung up — a closed peer reports
    /// readable so the owner observes EOF on the next read).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
}

impl Event {
    /// Interest in readability only.
    #[must_use]
    pub fn readable(key: usize) -> Event {
        Event { key, readable: true, writable: false }
    }

    /// Interest in writability only.
    #[must_use]
    pub fn writable(key: usize) -> Event {
        Event { key, readable: false, writable: true }
    }

    /// Interest in both directions.
    #[must_use]
    pub fn all(key: usize) -> Event {
        Event { key, readable: true, writable: true }
    }
}

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

/// Milliseconds for the kernel timeout argument: `None` blocks forever,
/// sub-millisecond waits round up so a short timeout never busy-spins.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(duration) => {
            let ms = duration.as_millis();
            let ms = if ms == 0 && duration.as_nanos() > 0 { 1 } else { ms };
            i32::try_from(ms).unwrap_or(i32::MAX)
        }
    }
}

#[cfg(target_os = "linux")]
mod backend {
    //! `epoll` backend: the poller is one epoll instance plus an `eventfd`
    //! registered under [`NOTIFY_KEY`](super::NOTIFY_KEY).

    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    use super::{last_os_error, timeout_ms, Event, RawFd, NOTIFY_KEY};

    // Values from the Linux UAPI headers (stable ABI).
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;
    const EINTR: i32 = 4;

    /// `struct epoll_event`; packed on x86/x86_64 (the kernel ABI), naturally
    /// aligned elsewhere — mirrors the C definition exactly.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    /// A readiness poller over one epoll instance. Safe to share across
    /// threads: the kernel serialises `epoll_ctl`/`epoll_wait`, and
    /// [`Poller::notify`] is async-signal-safe (one `write` on an eventfd).
    pub struct Poller {
        epfd: i32,
        event_fd: i32,
        /// Collapses redundant wake-ups between two waits.
        notified: AtomicBool,
    }

    impl Poller {
        /// Create a poller with its notify eventfd already registered.
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscalls; failure is reported via -1/errno.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(last_os_error());
            }
            let event_fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if event_fd < 0 {
                let error = last_os_error();
                unsafe { close(epfd) };
                return Err(error);
            }
            let poller = Poller { epfd, event_fd, notified: AtomicBool::new(false) };
            poller.ctl(EPOLL_CTL_ADD, event_fd, Some(Event::readable(NOTIFY_KEY)))?;
            Ok(poller)
        }

        fn ctl(&self, op: i32, fd: RawFd, interest: Option<Event>) -> io::Result<()> {
            let mut event = interest.map(|interest| EpollEvent {
                events: {
                    let mut bits = EPOLLRDHUP;
                    if interest.readable {
                        bits |= EPOLLIN;
                    }
                    if interest.writable {
                        bits |= EPOLLOUT;
                    }
                    bits
                },
                data: interest.key as u64,
            });
            let pointer = event.as_mut().map_or(std::ptr::null_mut(), std::ptr::from_mut);
            // SAFETY: `pointer` is null (DEL) or points at a live EpollEvent.
            if unsafe { epoll_ctl(self.epfd, op, fd, pointer) } < 0 {
                return Err(last_os_error());
            }
            Ok(())
        }

        /// Register `fd` under `interest.key`. The caller must keep `fd`
        /// open while registered and [`Poller::delete`] it before closing.
        pub fn add(&self, fd: RawFd, interest: Event) -> io::Result<()> {
            assert_ne!(interest.key, NOTIFY_KEY, "NOTIFY_KEY is reserved for the poller");
            self.ctl(EPOLL_CTL_ADD, fd, Some(interest))
        }

        /// Replace the interest set of an already-registered descriptor.
        pub fn modify(&self, fd: RawFd, interest: Event) -> io::Result<()> {
            assert_ne!(interest.key, NOTIFY_KEY, "NOTIFY_KEY is reserved for the poller");
            self.ctl(EPOLL_CTL_MOD, fd, Some(interest))
        }

        /// Deregister a descriptor.
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        /// Block until readiness, `timeout`, or a [`Poller::notify`] from
        /// another thread; fired events are appended to `events`. Returns
        /// the number appended (0 = timeout or bare notification).
        pub fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let mut raw = [EpollEvent { events: 0, data: 0 }; 256];
            let count = loop {
                // SAFETY: `raw` outlives the call and maxevents matches it.
                let rc = unsafe {
                    epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms(timeout))
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let error = last_os_error();
                if error.raw_os_error() != Some(EINTR) {
                    return Err(error);
                }
            };
            let mut appended = 0;
            for event in &raw[..count] {
                let (bits, data) = (event.events, event.data);
                if data as usize == NOTIFY_KEY {
                    self.drain_notifications();
                    continue;
                }
                events.push(Event {
                    key: data as usize,
                    // Errors and hang-ups surface as readable so the owner
                    // sees EOF/ECONNRESET on its next read.
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
                appended += 1;
            }
            Ok(appended)
        }

        /// Wake a concurrent [`Poller::wait`] from any thread.
        pub fn notify(&self) -> io::Result<()> {
            if self.notified.swap(true, Ordering::AcqRel) {
                return Ok(()); // a wake-up is already pending
            }
            let one: u64 = 1;
            // SAFETY: writes 8 bytes from a live u64; eventfd ignores EAGAIN
            // (counter saturated = a wake-up is already pending).
            let rc = unsafe { write(self.event_fd, std::ptr::from_ref(&one).cast(), 8) };
            if rc < 0 {
                let error = last_os_error();
                if error.kind() != io::ErrorKind::WouldBlock {
                    return Err(error);
                }
            }
            Ok(())
        }

        /// Reads the eventfd before clearing the pending flag. The other
        /// order loses wake-ups: a `notify` landing between the two would
        /// have its write eaten while the flag stayed set, so every later
        /// `notify` would return early. In this order a racing `notify`
        /// either writes again or is covered by the wake-up the caller is
        /// returning from (the caller drains its work after every wait).
        fn drain_notifications(&self) {
            let mut buf = [0u8; 8];
            // SAFETY: reads at most 8 bytes into a live buffer; the eventfd
            // is non-blocking so this never hangs.
            unsafe { read(self.event_fd, buf.as_mut_ptr(), buf.len()) };
            self.notified.store(false, Ordering::Release);
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: both descriptors are owned by this poller.
            unsafe {
                close(self.event_fd);
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod backend {
    //! `poll(2)` backend for non-Linux unix: registrations live in a table
    //! and every wait rebuilds the pollfd array. O(n) per wait, which is
    //! fine at the connection counts the fallback targets.

    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    use super::{last_os_error, timeout_ms, Event, RawFd, NOTIFY_KEY};

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const EINTR: i32 = 4;
    const F_GETFL: i32 = 3;
    const F_SETFL: i32 = 4;
    const O_NONBLOCK: i32 = 0o4000;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        fn pipe(fds: *mut i32) -> i32;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    /// A readiness poller over `poll(2)` and a registration table.
    pub struct Poller {
        registrations: Mutex<Vec<(RawFd, Event)>>,
        pipe_read: i32,
        pipe_write: i32,
        notified: AtomicBool,
    }

    impl Poller {
        /// Create a poller with its notify pipe already registered.
        pub fn new() -> io::Result<Poller> {
            let mut fds = [0i32; 2];
            // SAFETY: `fds` is a live two-slot array.
            if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
                return Err(last_os_error());
            }
            for fd in fds {
                // SAFETY: valid descriptor; sets non-blocking mode.
                let flags = unsafe { fcntl(fd, F_GETFL, 0) };
                if flags < 0 || unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
                    let error = last_os_error();
                    unsafe {
                        close(fds[0]);
                        close(fds[1]);
                    }
                    return Err(error);
                }
            }
            Ok(Poller {
                registrations: Mutex::new(Vec::new()),
                pipe_read: fds[0],
                pipe_write: fds[1],
                notified: AtomicBool::new(false),
            })
        }

        fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(RawFd, Event)>> {
            self.registrations.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        /// Register `fd` under `interest.key`.
        pub fn add(&self, fd: RawFd, interest: Event) -> io::Result<()> {
            assert_ne!(interest.key, NOTIFY_KEY, "NOTIFY_KEY is reserved for the poller");
            let mut table = self.lock();
            if table.iter().any(|(registered, _)| *registered == fd) {
                return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd already registered"));
            }
            table.push((fd, interest));
            Ok(())
        }

        /// Replace the interest set of an already-registered descriptor.
        pub fn modify(&self, fd: RawFd, interest: Event) -> io::Result<()> {
            assert_ne!(interest.key, NOTIFY_KEY, "NOTIFY_KEY is reserved for the poller");
            let mut table = self.lock();
            match table.iter_mut().find(|(registered, _)| *registered == fd) {
                Some(slot) => {
                    slot.1 = interest;
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        /// Deregister a descriptor.
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            let mut table = self.lock();
            let before = table.len();
            table.retain(|(registered, _)| *registered != fd);
            if table.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        /// Block until readiness, `timeout`, or a [`Poller::notify`].
        pub fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let (mut fds, keys): (Vec<PollFd>, Vec<usize>) = {
                let table = self.lock();
                let mut fds = Vec::with_capacity(table.len() + 1);
                let mut keys = Vec::with_capacity(table.len() + 1);
                fds.push(PollFd { fd: self.pipe_read, events: POLLIN, revents: 0 });
                keys.push(NOTIFY_KEY);
                for (fd, interest) in table.iter() {
                    let mut bits = 0i16;
                    if interest.readable {
                        bits |= POLLIN;
                    }
                    if interest.writable {
                        bits |= POLLOUT;
                    }
                    fds.push(PollFd { fd: *fd, events: bits, revents: 0 });
                    keys.push(interest.key);
                }
                (fds, keys)
            };
            let count = loop {
                // SAFETY: `fds` is live and nfds matches its length.
                let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms(timeout)) };
                if rc >= 0 {
                    break rc as usize;
                }
                let error = last_os_error();
                if error.raw_os_error() != Some(EINTR) {
                    return Err(error);
                }
            };
            let mut appended = 0;
            if count > 0 {
                for (slot, key) in fds.iter().zip(&keys) {
                    if slot.revents == 0 {
                        continue;
                    }
                    if *key == NOTIFY_KEY {
                        self.drain_notifications();
                        continue;
                    }
                    events.push(Event {
                        key: *key,
                        readable: slot.revents & (POLLIN | POLLERR | POLLHUP) != 0,
                        writable: slot.revents & (POLLOUT | POLLERR | POLLHUP) != 0,
                    });
                    appended += 1;
                }
            }
            Ok(appended)
        }

        /// Wake a concurrent [`Poller::wait`] from any thread.
        pub fn notify(&self) -> io::Result<()> {
            if self.notified.swap(true, Ordering::AcqRel) {
                return Ok(());
            }
            let byte = 1u8;
            // SAFETY: writes one byte; EAGAIN means a wake-up is pending.
            let rc = unsafe { write(self.pipe_write, std::ptr::from_ref(&byte), 1) };
            if rc < 0 {
                let error = last_os_error();
                if error.kind() != io::ErrorKind::WouldBlock {
                    return Err(error);
                }
            }
            Ok(())
        }

        /// Empties the pipe before clearing the pending flag, for the
        /// reason given on the epoll backend's `drain_notifications`.
        fn drain_notifications(&self) {
            let mut buf = [0u8; 64];
            // SAFETY: non-blocking read into a live buffer.
            while unsafe { read(self.pipe_read, buf.as_mut_ptr(), buf.len()) } > 0 {}
            self.notified.store(false, Ordering::Release);
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: the pipe descriptors are owned by this poller.
            unsafe {
                close(self.pipe_read);
                close(self.pipe_write);
            }
        }
    }
}

#[cfg(not(unix))]
mod backend {
    //! Stub for non-unix targets: every operation fails with `Unsupported`.
    //! The workspace only serves on unix; this keeps the crate compiling
    //! everywhere without pretending to a readiness API it cannot provide.

    use std::io;
    use std::time::Duration;

    use super::{Event, RawFd};

    fn unsupported() -> io::Error {
        io::Error::new(io::ErrorKind::Unsupported, "readiness polling requires a unix target")
    }

    /// Unsupported-platform poller; construction fails.
    pub struct Poller {}

    impl Poller {
        /// Always fails on non-unix targets.
        pub fn new() -> io::Result<Poller> {
            Err(unsupported())
        }

        /// Unreachable (construction fails).
        pub fn add(&self, _fd: RawFd, _interest: Event) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (construction fails).
        pub fn modify(&self, _fd: RawFd, _interest: Event) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (construction fails).
        pub fn delete(&self, _fd: RawFd) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (construction fails).
        pub fn wait(
            &self,
            _events: &mut Vec<Event>,
            _timeout: Option<Duration>,
        ) -> io::Result<usize> {
            Err(unsupported())
        }

        /// Unreachable (construction fails).
        pub fn notify(&self) -> io::Result<()> {
            Err(unsupported())
        }
    }
}

pub use backend::Poller;

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd as _;
    use std::time::Instant;

    #[test]
    fn readable_events_fire_for_pending_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), Event::readable(7)).unwrap();

        // Nothing pending: a short wait times out with no events.
        let mut events = Vec::new();
        let appended = poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(appended, 0, "unexpected events: {events:?}");

        client.write_all(b"ping").unwrap();
        let appended = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(appended, 1);
        assert_eq!(events[0].key, 7);
        assert!(events[0].readable);

        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 4);
        poller.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn interest_modification_controls_writability_reporting() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();

        let poller = Poller::new().unwrap();
        // Read-only interest: an idle writable socket reports nothing.
        poller.add(server.as_raw_fd(), Event::readable(3)).unwrap();
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap(), 0);

        poller.modify(server.as_raw_fd(), Event::all(3)).unwrap();
        assert!(poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap() >= 1);
        assert!(events.iter().any(|event| event.key == 3 && event.writable));
        poller.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn notify_wakes_a_blocking_wait_across_threads() {
        let poller = Poller::new().unwrap();
        std::thread::scope(|scope| {
            let poller = &poller;
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                poller.notify().unwrap();
            });
            let started = Instant::now();
            let mut events = Vec::new();
            // Without the notification this would block five seconds.
            let appended = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(appended, 0, "notify must not surface as a user event");
            assert!(started.elapsed() < Duration::from_secs(4), "wait was not woken");
        });
        // Coalesced notifications do not wedge later waits.
        poller.notify().unwrap();
        poller.notify().unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn notify_racing_a_drain_is_never_lost() {
        // One thread notifies in a tight loop while this one waits and
        // drains. A notify that lands while `wait` drains the previous one
        // must not be eaten with the pending flag left set: that would make
        // every later notify a no-op, and a wait would time out with
        // notifications outstanding.
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let poller = Poller::new().unwrap();
        let sent = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let timeout = Duration::from_secs(1);
        std::thread::scope(|scope| {
            let (poller, sent, done) = (&poller, &sent, &done);
            scope.spawn(move || {
                let started = Instant::now();
                while started.elapsed() < Duration::from_millis(1500) {
                    sent.fetch_add(1, Ordering::SeqCst);
                    poller.notify().unwrap();
                }
                done.store(true, Ordering::SeqCst);
                // Wakes a wait that began before `done` was set.
                poller.notify().unwrap();
            });
            let mut events = Vec::new();
            while !done.load(Ordering::SeqCst) {
                let seen = sent.load(Ordering::SeqCst);
                let started = Instant::now();
                poller.wait(&mut events, Some(timeout)).unwrap();
                assert!(
                    started.elapsed() < timeout || sent.load(Ordering::SeqCst) == seen,
                    "wait timed out with a notify pending"
                );
            }
        });
        poller.notify().unwrap();
        let started = Instant::now();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(timeout)).unwrap();
        assert!(started.elapsed() < timeout, "a notify after the race was lost");
    }
}
