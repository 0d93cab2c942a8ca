//! Offline shim: a minimal readiness-polling API over raw Linux FFI.
//!
//! The build environment has no crates.io access, so instead of `mio` or
//! the crates.io `polling` crate this shim declares the four syscalls an
//! event loop actually needs — `epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd` — directly against libc (which `std` already
//! links) and wraps them in a tiny safe API:
//!
//! * [`Poller`] — an epoll instance: register file descriptors with a
//!   `u64` token and an [`Interest`], then [`Poller::wait`] for
//!   [`Event`]s. Registrations are level-triggered (a readiness that is
//!   not fully consumed is reported again), which keeps callers simple.
//! * [`Waker`] — an `eventfd` registered in a poller so other threads
//!   can interrupt a blocked [`Poller::wait`].
//! * [`signal`] — an async-signal-safe SIGINT latch for graceful
//!   shutdown (the handler only stores an `AtomicBool`).
//!
//! On non-Linux targets every constructor returns
//! [`std::io::ErrorKind::Unsupported`] so callers can fall back to a
//! thread-per-connection front end; the API surface is identical.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::io;
use std::time::Duration;

/// Which readiness kinds a registration subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor has bytes to read (or EOF/error).
    pub readable: bool,
    /// Wake when the descriptor can accept writes.
    pub writable: bool,
}

impl Interest {
    /// Read-side interest only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Write-side interest only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };

    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Readable — includes EOF, peer hangup, and error conditions, so a
    /// read attempt will observe them rather than block.
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    // The kernel ABI packs `epoll_event` on x86-64 (and x86); other
    // architectures use natural alignment. Mirroring glibc's
    // `__EPOLL_PACKED` here keeps the struct layout correct everywhere.
    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[cfg(not(any(target_arch = "x86_64", target_arch = "x86")))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_NONBLOCK: i32 = 0o4000;
    const EFD_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    // RDHUP rides with read interest only: it is level-triggered and a
    // half-closed peer re-reports it on every wait, so a registration
    // that paused reads (and cannot consume it) must not subscribe —
    // one drained connection would otherwise busy-spin the poller.
    fn mask_for(interest: Interest) -> u32 {
        let mut events = 0;
        if interest.readable {
            events |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.writable {
            events |= EPOLLOUT;
        }
        events
    }

    /// An epoll instance (level-triggered).
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask_for(interest),
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
        }

        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
        }

        pub fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(d) => i32::try_from(d.as_millis()).unwrap_or(i32::MAX),
            };
            const CAP: usize = 256;
            let mut raw = [EpollEvent { events: 0, data: 0 }; CAP];
            let n = match unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), CAP as i32, timeout_ms) }
            {
                -1 => {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        // A signal landed; report an empty batch so the
                        // caller re-checks its shutdown flag.
                        0
                    } else {
                        return Err(e);
                    }
                }
                n => n as usize,
            };
            for ev in raw.iter().take(n) {
                let bits = ev.events;
                events.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }

    /// An eventfd registered in a poller: `wake` from any thread.
    #[derive(Debug)]
    pub struct Waker {
        fd: RawFd,
    }

    impl Waker {
        pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
            let fd = cvt(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
            if let Err(e) = poller.add(fd, token, Interest::READABLE) {
                unsafe { close(fd) };
                return Err(e);
            }
            Ok(Waker { fd })
        }

        pub fn wake(&self) {
            let one: u64 = 1;
            // EAGAIN means the counter is already nonzero — the poller
            // is waking anyway, so the failure is success.
            unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        }

        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    pub mod net {
        use std::io;
        use std::net::{SocketAddr, TcpListener};
        use std::os::unix::io::FromRawFd;

        const AF_INET: i32 = 2;
        const AF_INET6: i32 = 10;
        const SOCK_STREAM: i32 = 1;
        const SOCK_CLOEXEC: i32 = 0o2000000;
        const SOL_SOCKET: i32 = 1;
        const SO_REUSEADDR: i32 = 2;
        const SO_REUSEPORT: i32 = 15;

        // `sockaddr_in` / `sockaddr_in6`, as bind(2) expects them. Port
        // and the v4 address travel big-endian.
        #[repr(C)]
        struct SockaddrIn {
            family: u16,
            port_be: u16,
            addr_be: u32,
            zero: [u8; 8],
        }

        #[repr(C)]
        struct SockaddrIn6 {
            family: u16,
            port_be: u16,
            flowinfo: u32,
            addr: [u8; 16],
            scope_id: u32,
        }

        extern "C" {
            fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
            fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32)
                -> i32;
            fn bind(fd: i32, addr: *const u8, addrlen: u32) -> i32;
            fn listen(fd: i32, backlog: i32) -> i32;
            fn close(fd: i32) -> i32;
        }

        pub fn set_listen_backlog(fd: i32, backlog: i32) -> io::Result<()> {
            // Linux allows re-calling listen(2) on a listening socket to
            // resize its accept backlog (clamped to net.core.somaxconn).
            if unsafe { listen(fd, backlog) } != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        fn cvt(ret: i32) -> io::Result<i32> {
            if ret < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(ret)
            }
        }

        fn set_opt(fd: i32, opt: i32) -> io::Result<()> {
            let one: i32 = 1;
            cvt(unsafe { setsockopt(fd, SOL_SOCKET, opt, (&one as *const i32).cast(), 4) })
                .map(|_| ())
        }

        pub fn bind_reuseport(addr: SocketAddr, backlog: i32) -> io::Result<TcpListener> {
            let domain = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
            let fd = cvt(unsafe { socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0) })?;
            let guard_close = |e: io::Error| {
                unsafe { close(fd) };
                e
            };
            // SO_REUSEADDR matches std's TcpListener::bind (TIME_WAIT
            // rebinds); SO_REUSEPORT is what lets every shard bind the
            // same address and have the kernel spray accepts across the
            // listen sockets by 4-tuple hash.
            set_opt(fd, SO_REUSEADDR).map_err(guard_close)?;
            set_opt(fd, SO_REUSEPORT).map_err(guard_close)?;
            let ret = match addr {
                SocketAddr::V4(v4) => {
                    let sa = SockaddrIn {
                        family: AF_INET as u16,
                        port_be: v4.port().to_be(),
                        addr_be: u32::from_be_bytes(v4.ip().octets()).to_be(),
                        zero: [0; 8],
                    };
                    unsafe {
                        bind(
                            fd,
                            (&sa as *const SockaddrIn).cast(),
                            std::mem::size_of::<SockaddrIn>() as u32,
                        )
                    }
                }
                SocketAddr::V6(v6) => {
                    let sa = SockaddrIn6 {
                        family: AF_INET6 as u16,
                        port_be: v6.port().to_be(),
                        flowinfo: v6.flowinfo(),
                        addr: v6.ip().octets(),
                        scope_id: v6.scope_id(),
                    };
                    unsafe {
                        bind(
                            fd,
                            (&sa as *const SockaddrIn6).cast(),
                            std::mem::size_of::<SockaddrIn6>() as u32,
                        )
                    }
                }
            };
            cvt(ret).map_err(guard_close)?;
            cvt(unsafe { listen(fd, backlog) }).map_err(guard_close)?;
            Ok(unsafe { TcpListener::from_raw_fd(fd) })
        }
    }

    pub mod sched {
        use std::io;

        const SCHED_BATCH: i32 = 3;

        #[repr(C)]
        struct SchedParam {
            sched_priority: i32,
        }

        extern "C" {
            // On Linux the pid argument is a TID; 0 means the calling
            // thread.
            fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        }

        pub fn set_current_thread_batch() -> io::Result<()> {
            let param = SchedParam { sched_priority: 0 };
            if unsafe { sched_setscheduler(0, SCHED_BATCH, &param) } != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    pub mod signal {
        use std::io;
        use std::sync::atomic::{AtomicBool, Ordering};

        static SIGINT_RECEIVED: AtomicBool = AtomicBool::new(false);
        const SIGINT: i32 = 2;
        const SIG_ERR: usize = usize::MAX;

        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }

        extern "C" fn on_sigint(_signum: i32) {
            // Only an atomic store: the handler must stay
            // async-signal-safe (no allocation, no locks, no IO).
            SIGINT_RECEIVED.store(true, Ordering::SeqCst);
        }

        pub fn install_sigint() -> io::Result<()> {
            let handler = on_sigint as extern "C" fn(i32) as usize;
            if unsafe { signal(SIGINT, handler) } == SIG_ERR {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn sigint_received() -> bool {
            SIGINT_RECEIVED.load(Ordering::SeqCst)
        }

        pub fn reset_sigint() {
            SIGINT_RECEIVED.store(false, Ordering::SeqCst);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::time::Duration;

    /// Raw descriptor stand-in (matches `std::os::unix::io::RawFd`).
    pub type RawFd = i32;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "the polling shim implements epoll and is Linux-only",
        )
    }

    /// Stub poller: every constructor fails with `Unsupported`.
    #[derive(Debug)]
    pub struct Poller {}

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(unsupported())
        }

        pub fn add(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn modify(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn delete(&self, _fd: RawFd) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn wait(
            &self,
            _events: &mut Vec<Event>,
            _timeout: Option<Duration>,
        ) -> io::Result<usize> {
            Err(unsupported())
        }
    }

    /// Stub waker.
    #[derive(Debug)]
    pub struct Waker {}

    impl Waker {
        pub fn new(_poller: &Poller, _token: u64) -> io::Result<Waker> {
            Err(unsupported())
        }

        pub fn wake(&self) {}

        pub fn drain(&self) {}
    }

    pub mod net {
        use std::io;
        use std::net::{SocketAddr, TcpListener};

        pub fn set_listen_backlog(_fd: i32, _backlog: i32) -> io::Result<()> {
            Err(super::unsupported())
        }

        pub fn bind_reuseport(_addr: SocketAddr, _backlog: i32) -> io::Result<TcpListener> {
            Err(super::unsupported())
        }
    }

    pub mod sched {
        use std::io;

        pub fn set_current_thread_batch() -> io::Result<()> {
            Err(super::unsupported())
        }
    }

    pub mod signal {
        use std::io;

        pub fn install_sigint() -> io::Result<()> {
            Err(super::unsupported())
        }

        pub fn sigint_received() -> bool {
            false
        }

        pub fn reset_sigint() {}
    }
}

/// An epoll instance owning registered descriptors' readiness state.
///
/// Registrations are **level-triggered**: readiness the caller does not
/// fully consume is reported by the next [`Poller::wait`] again.
#[derive(Debug)]
pub struct Poller {
    inner: sys::Poller,
}

#[cfg(target_os = "linux")]
type Fd = std::os::unix::io::RawFd;
#[cfg(not(target_os = "linux"))]
type Fd = sys::RawFd;

impl Poller {
    /// Creates an epoll instance (`EPOLL_CLOEXEC`).
    ///
    /// # Errors
    /// The OS error from `epoll_create1`; `Unsupported` off Linux.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: sys::Poller::new()?,
        })
    }

    /// Registers `fd` under `token` with `interest`.
    ///
    /// # Errors
    /// The OS error from `epoll_ctl` (e.g. `EEXIST` for a double add).
    pub fn add(&self, fd: Fd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.add(fd, token, interest)
    }

    /// Replaces `fd`'s registration with `token` + `interest`.
    ///
    /// # Errors
    /// The OS error from `epoll_ctl` (e.g. `ENOENT` if never added).
    pub fn modify(&self, fd: Fd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Deregisters `fd`. Must be called **before** the descriptor is
    /// closed, or stale events for a recycled fd may surface.
    ///
    /// # Errors
    /// The OS error from `epoll_ctl`.
    pub fn delete(&self, fd: Fd) -> io::Result<()> {
        self.inner.delete(fd)
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout` elapses (`None` blocks indefinitely), filling `events`
    /// (cleared first) and returning how many arrived. A signal
    /// interruption returns `Ok(0)` so callers re-check shutdown flags.
    ///
    /// # Errors
    /// The OS error from `epoll_wait`.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        self.inner.wait(events, timeout)
    }
}

/// Wakes a [`Poller::wait`] from another thread via an `eventfd`
/// registered in the poller (its events carry the token given at
/// construction). Send + Sync: call [`Waker::wake`] from anywhere.
#[derive(Debug)]
pub struct Waker {
    inner: sys::Waker,
}

impl Waker {
    /// Creates a nonblocking `eventfd` and registers it in `poller`
    /// under `token`.
    ///
    /// # Errors
    /// The OS error from `eventfd` or the registration.
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        Ok(Waker {
            inner: sys::Waker::new(&poller.inner, token)?,
        })
    }

    /// Makes the poller's next (or current) `wait` return. Never blocks;
    /// coalesces with wakes not yet observed.
    pub fn wake(&self) {
        self.inner.wake();
    }

    /// Consumes pending wake tokens so the (level-triggered) poller
    /// stops reporting the waker as readable. Call on receipt.
    pub fn drain(&self) {
        self.inner.drain();
    }
}

/// Listening-socket tuning.
///
/// `std::net::TcpListener` hardcodes an accept backlog of 128; a server
/// expecting hundreds of clients to connect in one burst (a dashboard
/// fleet reconnecting, a load generator starting) overflows it and the
/// excess SYNs sit in multi-second retransmit stalls.
/// [`net::set_listen_backlog`] resizes the backlog of an
/// already-listening socket (Linux re-applies `listen(2)`; the kernel
/// clamps to `net.core.somaxconn`).
///
/// [`net::bind_reuseport`] creates a listening socket with
/// `SO_REUSEPORT` set before `bind(2)`, so several listeners — one per
/// event-loop shard — can share one address and the kernel distributes
/// incoming connections across them by 4-tuple hash. Every socket on
/// the address must carry the option, including the first; a server
/// that may ever shard must create its primary listener through this
/// call too.
pub mod net {
    use super::sys;
    use std::io;
    use std::net::{SocketAddr, TcpListener};

    /// Resizes `fd`'s accept backlog.
    ///
    /// # Errors
    /// The OS error from `listen(2)`; `Unsupported` off Linux.
    pub fn set_listen_backlog(fd: i32, backlog: i32) -> io::Result<()> {
        sys::net::set_listen_backlog(fd, backlog)
    }

    /// Binds a new `SO_REUSEPORT` + `SO_REUSEADDR` listening socket to
    /// `addr` with the given accept `backlog`. Additional shards bind
    /// the *resolved* address of the first listener (port 0 becomes the
    /// picked port).
    ///
    /// # Errors
    /// The OS error from `socket`/`setsockopt`/`bind`/`listen`;
    /// `Unsupported` off Linux (callers fall back to one plain
    /// listener).
    pub fn bind_reuseport(addr: SocketAddr, backlog: i32) -> io::Result<TcpListener> {
        sys::net::bind_reuseport(addr, backlog)
    }
}

/// Thread scheduling hints for serving threads.
///
/// [`sched::set_current_thread_batch`] switches the calling thread to
/// `SCHED_BATCH`: same fair share of CPU, but the kernel stops letting
/// the thread *wakeup-preempt* whoever is running. For an event loop
/// and its workers this is a batching lever — client wake-ups are not
/// interrupted mid-burst, so readiness accumulates and each
/// `epoll_wait` returns a fuller batch. Lowering one's own scheduling
/// class needs no privileges.
pub mod sched {
    use super::sys;
    use std::io;

    /// Puts the calling thread in the `SCHED_BATCH` class.
    ///
    /// # Errors
    /// The OS error from `sched_setscheduler`; `Unsupported` off Linux.
    pub fn set_current_thread_batch() -> io::Result<()> {
        sys::sched::set_current_thread_batch()
    }
}

/// Async-signal-safe SIGINT latching for graceful shutdown.
///
/// [`signal::install_sigint`] replaces the process SIGINT disposition
/// with a handler that only sets an `AtomicBool`;
/// [`signal::sigint_received`] polls it. The latch is process-global —
/// intended for a binary's main loop, not libraries.
pub mod signal {
    use super::sys;
    use std::io;

    /// Installs the latching SIGINT handler.
    ///
    /// # Errors
    /// The OS error from `signal(2)`; `Unsupported` off Linux.
    pub fn install_sigint() -> io::Result<()> {
        sys::signal::install_sigint()
    }

    /// Whether SIGINT has arrived since install (or the last reset).
    pub fn sigint_received() -> bool {
        sys::signal::sigint_received()
    }

    /// Clears the latch (for tests).
    pub fn reset_sigint() {
        sys::signal::reset_sigint()
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    #[test]
    fn poller_reports_tcp_readiness() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .add(listener.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();

        let mut events = Vec::new();
        // Nothing pending: the wait times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        // A connect makes the listener readable under its token.
        let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Accept, register the server side, and watch bytes arrive.
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poller.add(server.as_raw_fd(), 9, Interest::BOTH).unwrap();
        let mut client = client;
        client.write_all(b"ping").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 9 && e.readable) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no readable event");
        }
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 4);

        // Level-triggered delete: after deregistration, silence.
        poller.delete(server.as_raw_fd()).unwrap();
        client.write_all(b"more").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(
            events.iter().all(|e| e.token != 9),
            "deregistered fd still reported ({n} events)"
        );
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let waker = std::sync::Arc::new(Waker::new(&poller, 42).unwrap());

        let w = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake();
            w.wake(); // coalesces
        });

        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 42);
        waker.drain();
        t.join().unwrap();

        // Drained: the waker is quiet again.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn reuseport_listeners_share_an_address() {
        let first = net::bind_reuseport("127.0.0.1:0".parse().unwrap(), 64).unwrap();
        let addr = first.local_addr().unwrap();
        assert_ne!(addr.port(), 0, "port 0 resolves to a real port");
        // A second listener binds the *same* resolved address.
        let second = net::bind_reuseport(addr, 64).unwrap();
        assert_eq!(second.local_addr().unwrap(), addr);

        // Connections land on one of the two listeners; accept them all
        // from both sides (nonblocking, drained after the burst).
        first.set_nonblocking(true).unwrap();
        second.set_nonblocking(true).unwrap();
        let mut clients = Vec::new();
        for _ in 0..8 {
            clients.push(std::net::TcpStream::connect(addr).unwrap());
        }
        let mut accepted = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while accepted < clients.len() {
            for l in [&first, &second] {
                while l.accept().is_ok() {
                    accepted += 1;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "only {accepted} of {} connections accepted",
                clients.len()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn sigint_latch_starts_clear() {
        signal::reset_sigint();
        assert!(!signal::sigint_received());
        signal::install_sigint().unwrap();
        assert!(!signal::sigint_received());
        // Raising a real SIGINT would kill the test harness politely but
        // unhelpfully; the latch mechanics are exercised via reset.
        signal::reset_sigint();
    }
}
