//! A minimal readiness poller over raw `epoll`, plus the eventfd waker
//! the worker pool uses to hand completed jobs back to the reactor
//! thread.
//!
//! The daemon (see `event_loop.rs`) runs one or more reactor threads,
//! each driving its share of the connections: sockets are registered
//! here with a `u64` token, [`Poller::wait`] reports
//! which are readable/writable, and the per-connection state machines
//! advance without ever blocking on I/O. std already links libc on
//! Unix, so the syscalls are bound directly with `extern "C"` — no new
//! crate dependencies. The same raw-binding style covers
//! [`reuseport_listener`], the `SO_REUSEPORT` accept path that lets
//! every reactor own its own listener on one shared port.
//!
//! Everything is **level-triggered**: a socket with unread bytes (or
//! writable space while we still have bytes queued) reports ready on
//! every wait until the condition clears. That costs a few spurious
//! wakeups compared to edge-triggering but removes the
//! starvation-by-missed-edge class of bugs entirely, and the daemon
//! modulates interest (`EPOLLOUT` only while a write buffer is
//! nonempty, `EPOLLIN` dropped while a client is over its write
//! budget) so the spurious set stays small.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::{FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_uint, c_void};

const EPOLL_CLOEXEC: c_int = 0x80000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x1;
const EPOLLOUT: u32 = 0x4;
const EPOLLERR: u32 = 0x8;
const EPOLLHUP: u32 = 0x10;
const EPOLLRDHUP: u32 = 0x2000;

const EFD_NONBLOCK: c_int = 0x800;
const EFD_CLOEXEC: c_int = 0x80000;

const EINTR: i32 = 4;

const AF_INET: c_int = 2;
const AF_INET6: c_int = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_CLOEXEC: c_int = 0x80000;
const SOL_SOCKET: c_int = 1;
const SO_REUSEPORT: c_int = 15;

/// Accept backlog for reuseport listeners; matches what std passes to
/// `listen(2)` for `TcpListener::bind`.
const LISTEN_BACKLOG: c_int = 128;

/// Mirrors `struct epoll_event`. On x86-64 the kernel ABI packs the
/// struct (no padding between `events` and `data`); other Linux
/// targets use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// Mirrors `struct sockaddr_in` (fields in network byte order).
#[repr(C)]
#[derive(Clone, Copy)]
struct SockaddrIn {
    family: u16,
    port: u16,
    addr: u32,
    zero: [u8; 8],
}

/// Mirrors `struct sockaddr_in6` (fields in network byte order).
#[repr(C)]
#[derive(Clone, Copy)]
struct SockaddrIn6 {
    family: u16,
    port: u16,
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: c_uint)
        -> c_int;
    fn bind(fd: c_int, addr: *const c_void, len: c_uint) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Binds a listener with `SO_REUSEPORT` set, so several listeners can
/// share one address and the kernel load-balances incoming connections
/// across them — the accept path of a multi-reactor daemon. Every
/// listener in a group must be created this way (the option has to be
/// set *before* `bind`, which is why `std`'s `TcpListener::bind` cannot
/// do it), so joining a port owned by a non-reuseport socket fails with
/// `EADDRINUSE` and the caller falls back to single-listener accept.
///
/// # Errors
///
/// Any failing syscall of the socket/setsockopt/bind/listen sequence.
pub fn reuseport_listener(addr: SocketAddr) -> io::Result<TcpListener> {
    let domain = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    // SAFETY: no pointers involved; the return value is checked.
    let fd = check(unsafe { socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0) })?;
    // SAFETY: `fd` is a fresh socket this function owns; wrapping it
    // first means every early return below closes it.
    let sock = unsafe { OwnedFd::from_raw_fd(fd) };
    let one: c_int = 1;
    // SAFETY: passes a live c_int of the stated size.
    check(unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_REUSEPORT,
            (&raw const one).cast::<c_void>(),
            std::mem::size_of::<c_int>() as c_uint,
        )
    })?;
    match addr {
        SocketAddr::V4(v4) => {
            let sa = SockaddrIn {
                family: AF_INET as u16,
                port: v4.port().to_be(),
                addr: u32::from(*v4.ip()).to_be(),
                zero: [0; 8],
            };
            // SAFETY: passes a live sockaddr_in of the stated size.
            check(unsafe {
                bind(
                    fd,
                    (&raw const sa).cast::<c_void>(),
                    std::mem::size_of::<SockaddrIn>() as c_uint,
                )
            })?;
        }
        SocketAddr::V6(v6) => {
            let sa = SockaddrIn6 {
                family: AF_INET6 as u16,
                port: v6.port().to_be(),
                // flowinfo and scope_id stay in host order (matching
                // std's sockaddr conversion); only port/addr are BE.
                flowinfo: v6.flowinfo(),
                addr: v6.ip().octets(),
                scope_id: v6.scope_id(),
            };
            // SAFETY: passes a live sockaddr_in6 of the stated size.
            check(unsafe {
                bind(
                    fd,
                    (&raw const sa).cast::<c_void>(),
                    std::mem::size_of::<SockaddrIn6>() as c_uint,
                )
            })?;
        }
    }
    // SAFETY: no pointers involved; the return value is checked.
    check(unsafe { listen(fd, LISTEN_BACKLOG) })?;
    Ok(TcpListener::from(sock))
}

/// What a registration wants to hear about. Readiness for reading is
/// always paired with `EPOLLRDHUP` so a peer half-close surfaces as an
/// event instead of a silent stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or the peer closed).
    pub readable: bool,
    /// Wake when the fd can accept more written bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest: the idle state of a connection.
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Write-only interest: a connection over its read budget that
    /// still has queued response bytes.
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    /// Both directions: draining a response while staying responsive.
    pub const BOTH: Interest = Interest { readable: true, writable: true };

    fn mask(self) -> u32 {
        let mut mask = 0;
        if self.readable {
            mask |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            mask |= EPOLLOUT;
        }
        mask
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Bytes are available to read.
    pub readable: bool,
    /// The fd can accept written bytes.
    pub writable: bool,
    /// Error or hangup: the connection is dead regardless of the
    /// other flags.
    pub closed: bool,
}

/// The epoll instance. One per reactor thread; not shared.
pub struct Poller {
    epfd: c_int,
}

impl Poller {
    /// A fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: no pointers involved; the return value is checked.
        let epfd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, event: Option<&mut EpollEvent>) -> io::Result<()> {
        let ptr = event.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
        // SAFETY: `ptr` is either null (allowed for DEL) or points at a
        // live EpollEvent for the duration of the call.
        check(unsafe { epoll_ctl(self.epfd, op, fd, ptr) })?;
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut event = EpollEvent { events: interest.mask(), data: token };
        self.ctl(EPOLL_CTL_ADD, fd, Some(&mut event))
    }

    /// Re-arms an existing registration with new interest.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut event = EpollEvent { events: interest.mask(), data: token };
        self.ctl(EPOLL_CTL_MOD, fd, Some(&mut event))
    }

    /// Removes `fd` from the poller. (Closing the fd does this
    /// implicitly, but explicit removal keeps the invariant obvious.)
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Blocks up to `timeout_ms` (`-1` = forever, `0` = poll) and
    /// appends one [`Event`] per ready fd to `events`. Returns how
    /// many were appended; `EINTR` retries internally.
    pub fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        const CAPACITY: usize = 256;
        let mut raw = [EpollEvent { events: 0, data: 0 }; CAPACITY];
        let n = loop {
            // SAFETY: `raw` is a live, writable buffer of CAPACITY
            // entries for the duration of the call.
            let ret =
                unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), CAPACITY as c_int, timeout_ms) };
            if ret >= 0 {
                break ret as usize;
            }
            let err = io::Error::last_os_error();
            if err.raw_os_error() != Some(EINTR) {
                return Err(err);
            }
        };
        for ev in &raw[..n] {
            let bits = ev.events;
            events.push(Event {
                token: ev.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: epfd is a valid fd we own; double-close is impossible
        // because Drop runs once.
        unsafe { close(self.epfd) };
    }
}

/// Cross-thread wakeup for the reactor: workers call [`Waker::wake`]
/// after pushing a completion, which makes the eventfd readable and
/// pops the reactor out of [`Poller::wait`].
pub struct Waker {
    fd: c_int,
}

impl Waker {
    /// A fresh nonblocking eventfd.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: no pointers involved; the return value is checked.
        let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Waker { fd })
    }

    /// The fd to register with the [`Poller`].
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Makes the eventfd readable. Wakes the reactor if it is parked
    /// in `wait`; coalesces harmlessly if it isn't.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a live u64; an eventfd write of
        // 8 bytes either succeeds or fails atomically, and failure
        // (EAGAIN at u64::MAX-1 pending wakes) still leaves the fd
        // readable, which is all we need.
        unsafe { write(self.fd, (&raw const one).cast::<c_void>(), 8) };
    }

    /// Clears pending wakeups so level-triggered polling stops
    /// reporting the waker readable.
    pub fn drain(&self) {
        let mut counter: u64 = 0;
        // SAFETY: reads 8 bytes into a live u64. Nonblocking, so this
        // returns EAGAIN (ignored) when already drained.
        unsafe { read(self.fd, (&raw mut counter).cast::<c_void>(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: fd is a valid eventfd we own.
        unsafe { close(self.fd) };
    }
}

// The reactor thread owns the Waker, but workers hold clones of an
// Arc<Waker> and only call `wake` (a single syscall on an fd that
// lives as long as the Arc).
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn poller_reports_readable_after_bytes_arrive() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.add(b.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0, "idle socket: no events");

        a.write_all(b"hello\n").unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(!events[0].closed);
    }

    #[test]
    fn poller_reports_hangup_when_the_peer_closes() {
        let poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        poller.add(b.as_raw_fd(), 3, Interest::READ).unwrap();
        drop(a);
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.closed), "{events:?}");
    }

    #[test]
    fn interest_modulation_silences_and_rearms_writability() {
        let poller = Poller::new().unwrap();
        let (_a, b) = UnixStream::pair().unwrap();
        poller.add(b.as_raw_fd(), 1, Interest::READ).unwrap();
        let mut events = Vec::new();
        // Read-only interest: an idle-but-writable socket is silent.
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
        // Re-armed for writes, the same socket reports writable.
        poller.modify(b.as_raw_fd(), 1, Interest::BOTH).unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable), "{events:?}");
        // And deletion silences it entirely.
        events.clear();
        poller.delete(b.as_raw_fd()).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn reuseport_group_shares_one_port_and_both_listeners_accept() {
        let first = reuseport_listener("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = first.local_addr().unwrap();
        let second = reuseport_listener(addr).unwrap();
        assert_eq!(second.local_addr().unwrap(), addr);
        first.set_nonblocking(true).unwrap();
        second.set_nonblocking(true).unwrap();
        // The kernel picks a group member per connection 4-tuple hash;
        // 64 distinct source ports make "one listener got everything"
        // a ~2^-63 event.
        let conns: Vec<std::net::TcpStream> =
            (0..64).map(|_| std::net::TcpStream::connect(addr).unwrap()).collect();
        let drain = |l: &std::net::TcpListener| {
            let mut n = 0;
            while l.accept().is_ok() {
                n += 1;
            }
            n
        };
        // Accepts may trail the connects briefly; poll until all 64
        // have landed.
        let (mut a, mut b) = (0, 0);
        for _ in 0..200 {
            a += drain(&first);
            b += drain(&second);
            if a + b == conns.len() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(a + b, conns.len());
        assert!(a > 0 && b > 0, "kernel balanced {a}/{b} across the group");
    }

    #[test]
    fn reuseport_cannot_join_a_port_bound_without_it() {
        let plain = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = plain.local_addr().unwrap();
        // The fallback trigger for `serve_on` with an external listener.
        assert!(reuseport_listener(addr).is_err());
    }

    #[test]
    fn waker_round_trip() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.fd(), u64::MAX, Interest::READ).unwrap();

        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0, "fresh waker is quiet");

        waker.wake();
        waker.wake(); // coalesces
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == u64::MAX && e.readable));

        waker.drain();
        events.clear();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0, "drained waker is quiet again");
    }
}
