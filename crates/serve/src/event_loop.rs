//! One reactor thread: the epoll loop that moves bytes between sockets
//! and their [`Conn`] state machines.
//!
//! Everything that touches a `TcpStream` lives here — accept (own
//! `SO_REUSEPORT` listener, or round-robin hand-off from reactor 0),
//! nonblocking reads and writes, interest re-arming, the idle sweep,
//! the recycled-buffer pool, the per-reactor gauges, and the bounded
//! shutdown drain. What the bytes *mean* is not decided here: framing
//! is [`Conn`]'s, requests are [`dispatch::handle_line`]'s.

use crate::conn::Conn;
use crate::dispatch::{self, Control, Handled, ReplyTo};
use crate::metrics::ReactorStats;
use crate::reactor::{Event, Interest, Poller};
use crate::seams::Clock;
use crate::server::{trigger_shutdown, AcceptPath, ReactorShared, Shared};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Reactor poll tick: the idle sweep and shutdown checks run at least
/// this often even with no socket events.
const TICK_MS: i32 = 50;

/// Idle deadline on the daemon's clock: a settled connection with no
/// bytes in for longer than this is reaped (slow-client guard).
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Per-reactor recycle pool: at most this many connection buffers are
/// kept for reuse, so a burst of ten thousand connections does not pin
/// ten thousand buffers forever.
const POOL_MAX_BUFFERS: usize = 64;

/// Buffers grown past this capacity are dropped instead of pooled — a
/// single 8 MiB upload must not turn the pool into a permanent 8 MiB
/// hoard per slot.
const POOL_MAX_BUF_CAPACITY: usize = 256 * 1024;

/// How long the reactor keeps flushing in-flight responses after
/// shutdown triggers before force-closing (covers a worker finishing
/// the job whose client asked for the frame). Wall time, never the
/// injected clock: a manual clock must not be able to hang a shutdown.
const DRAIN_DEADLINE: Duration = Duration::from_secs(6);

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// One connection as the reactor sees it: the socket and its framing
/// state.
struct Slot {
    stream: TcpStream,
    conn: Conn,
    /// This connection's `shutdown` op stops the daemon once its
    /// response frame is on the wire.
    shutdown_when_drained: bool,
    /// Last moment bytes arrived, on the daemon's clock (what the idle
    /// sweep reads).
    last_activity: Instant,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// This connection's unwritten bytes as last added to the
    /// reactor's `pending_bytes` gauge (see [`publish_backlog`]).
    gauged: usize,
}

impl Slot {
    /// Nothing in flight and nothing owed: safe to reap or close.
    fn settled(&self) -> bool {
        !self.conn.is_busy() && self.conn.unwritten() == 0
    }
}

/// Why a connection is being torn down (metrics bookkeeping).
enum CloseReason {
    /// Peer closed, I/O error, or normal end-of-session.
    Gone,
    /// The idle sweep reaped it.
    Idle,
}

/// A reactor-local stash of retired connection buffers. Bounded two
/// ways — [`POOL_MAX_BUFFERS`] slots, [`POOL_MAX_BUF_CAPACITY`] per
/// buffer — so connection churn recycles allocations without an
/// occasional huge upload turning the pool into a permanent hoard.
/// Thread-local to one reactor: no locks on the accept path.
struct BufferPool {
    bufs: Vec<Vec<u8>>,
}

impl BufferPool {
    /// An empty buffer, recycled when one is banked.
    fn take(&mut self, stats: &ReactorStats) -> Vec<u8> {
        match self.bufs.pop() {
            Some(buf) => {
                stats.buffer_reuses.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => Vec::new(),
        }
    }

    /// Banks a retired buffer, unless it never allocated, outgrew the
    /// per-buffer cap, or the pool is full.
    fn put(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() == 0
            || buf.capacity() > POOL_MAX_BUF_CAPACITY
            || self.bufs.len() >= POOL_MAX_BUFFERS
        {
            return;
        }
        buf.clear();
        self.bufs.push(buf);
    }
}

/// Everything thread-local to one reactor.
struct Reactor<'a> {
    shared: &'a Shared,
    idx: usize,
    /// This reactor's cross-thread surface (`shared.reactors[idx]`).
    rs: &'a ReactorShared,
    poller: Poller,
    /// Reuseport: this reactor's own listener. Round-robin: the single
    /// listener on reactor 0, `None` on the others.
    listener: Option<TcpListener>,
    slots: HashMap<u64, Slot>,
    next_token: u64,
    /// Round-robin cursor (the acceptor rotates over every reactor,
    /// itself included). Unused on the reuseport path.
    next_rr: usize,
    pool: BufferPool,
}

/// One reactor thread: loops on readiness events, the completion list
/// fed by workers, sockets handed off by the round-robin acceptor, and
/// a periodic tick for the idle sweep; on shutdown, drains what its
/// connections are owed and closes them.
pub(crate) fn run(shared: &Shared, idx: usize, listener: Option<TcpListener>) {
    let Ok(poller) = Poller::new() else { return };
    let mut reactor = Reactor {
        shared,
        idx,
        rs: &shared.reactors[idx],
        poller,
        listener,
        slots: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        next_rr: idx,
        pool: BufferPool { bufs: Vec::new() },
    };
    if reactor.register_sources().is_err() {
        return;
    }
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = [0u8; 16 * 1024];
    loop {
        events.clear();
        let _ = reactor.poller.wait(&mut events, TICK_MS);
        if shared.shutting_down.load(Ordering::Acquire) {
            break;
        }
        for &event in &events {
            match event.token {
                LISTENER_TOKEN => reactor.accept_ready(),
                WAKER_TOKEN => reactor.rs.waker.drain(),
                _ => reactor.socket_ready(event, &mut scratch),
            }
        }
        // Sockets the round-robin acceptor handed over, then worker
        // completions — both can land without their waker event being
        // in this batch; drain unconditionally (uncontended locks).
        reactor.adopt_incoming();
        reactor.deliver_completions();
        reactor.sweep_idle();
        if shared.shutting_down.load(Ordering::Acquire) {
            break;
        }
    }
    reactor.drain_and_close(&mut events);
}

impl Reactor<'_> {
    /// Registers the listener (when this reactor has one) and the waker.
    fn register_sources(&self) -> io::Result<()> {
        if let Some(listener) = &self.listener {
            listener.set_nonblocking(true)?;
            self.poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        }
        self.poller.add(self.rs.waker.fd(), WAKER_TOKEN, Interest::READ)
    }

    /// Accepts everything pending on the listener; each socket is
    /// either registered here (reuseport — the kernel already balanced
    /// it to this reactor; round-robin when the rotation lands on the
    /// acceptor itself) or handed to the rotation's next reactor
    /// through its `incoming` list and waker.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.shutting_down.load(Ordering::Acquire) {
                        return;
                    }
                    let target = match self.shared.accept {
                        AcceptPath::RoundRobin => {
                            let t = self.next_rr % self.shared.reactors.len();
                            self.next_rr = (t + 1) % self.shared.reactors.len();
                            t
                        }
                        AcceptPath::Reuseport => self.idx,
                    };
                    if target == self.idx {
                        self.register(stream);
                    } else {
                        let peer = &self.shared.reactors[target];
                        peer.incoming.lock().expect("incoming").push(stream);
                        peer.waker.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Registers sockets the round-robin acceptor handed to this
    /// reactor.
    fn adopt_incoming(&mut self) {
        let streams = std::mem::take(&mut *self.rs.incoming.lock().expect("incoming"));
        for stream in streams {
            if self.shared.shutting_down.load(Ordering::Acquire) {
                return;
            }
            self.register(stream);
        }
    }

    /// Puts one accepted socket under this reactor's wing: nonblocking,
    /// no Nagle, registered read-ready, buffers from the recycle pool.
    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // See ServeClient::connect: small frames, no Nagle.
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self.poller.add(stream.as_raw_fd(), token, Interest::READ).is_err() {
            return;
        }
        let stats = &self.rs.stats;
        stats.accepted.fetch_add(1, Ordering::Relaxed);
        stats.open_connections.fetch_add(1, Ordering::Relaxed);
        self.slots.insert(
            token,
            Slot {
                stream,
                conn: Conn::new(self.pool.take(stats), self.pool.take(stats)),
                shutdown_when_drained: false,
                last_activity: self.shared.seams.clock.now(),
                interest: Interest::READ,
                gauged: 0,
            },
        );
    }

    /// One readiness event on a connection's socket.
    fn socket_ready(&mut self, event: Event, scratch: &mut [u8]) {
        let Some(slot) = self.slots.get_mut(&event.token) else { return };
        let alive = !event.closed
            && (!event.readable || read_ready(slot, scratch, &self.shared.seams.clock))
            && (!event.writable || flush_writes(slot));
        if alive {
            self.finish_turn(event.token);
        } else {
            self.close(event.token, CloseReason::Gone);
        }
    }

    /// One connection's end-of-event bookkeeping: handle buffered
    /// frames, flush opportunistically (most responses fit the socket
    /// buffer, so waiting for EPOLLOUT would add a poll round trip),
    /// then settle the close-or-rearm decision.
    fn finish_turn(&mut self, token: u64) {
        let Some(slot) = self.slots.get_mut(&token) else { return };
        pump_frames(self.shared, ReplyTo { reactor: self.idx, token }, slot);
        let alive = flush_writes(slot);
        publish_backlog(&self.rs.stats, slot);
        if !alive {
            return self.close(token, CloseReason::Gone);
        }
        if slot.conn.is_closing() && slot.conn.unwritten() == 0 {
            if slot.shutdown_when_drained {
                trigger_shutdown(self.shared);
            }
            return self.close(token, CloseReason::Gone);
        }
        let desired = slot.conn.interest();
        if desired != slot.interest {
            if self.poller.modify(slot.stream.as_raw_fd(), token, desired).is_err() {
                return self.close(token, CloseReason::Gone);
            }
            slot.interest = desired;
        }
    }

    /// Hands worker completions to their connections and re-runs their
    /// frame pumps (pipelined requests may be waiting).
    fn deliver_completions(&mut self) {
        let completed = std::mem::take(&mut *self.rs.completions.lock().expect("completions"));
        for (token, frame) in completed {
            // A missing slot means the client left while its job ran;
            // the body (if cacheable) is in the store regardless.
            let Some(slot) = self.slots.get_mut(&token) else { continue };
            slot.conn.complete(&frame);
            self.finish_turn(token);
        }
    }

    /// Reaps connections idle past the deadline (not waiting on a
    /// worker, nothing left to write): the slow-client guard that keeps
    /// half-open sockets from accumulating forever.
    fn sweep_idle(&mut self) {
        let now = self.shared.seams.clock.now();
        let stale: Vec<u64> = self
            .slots
            .iter()
            .filter(|(_, s)| s.settled() && now.duration_since(s.last_activity) > IDLE_TIMEOUT)
            .map(|(&token, _)| token)
            .collect();
        for token in stale {
            self.close(token, CloseReason::Idle);
        }
    }

    fn close(&mut self, token: u64, reason: CloseReason) {
        let Some(slot) = self.slots.remove(&token) else { return };
        let _ = self.poller.delete(slot.stream.as_raw_fd());
        let stats = &self.rs.stats;
        stats.pending_bytes.fetch_sub(slot.gauged as u64, Ordering::Relaxed);
        stats.open_connections.fetch_sub(1, Ordering::Relaxed);
        if matches!(reason, CloseReason::Idle) {
            stats.idle_reaped.fetch_add(1, Ordering::Relaxed);
        }
        // Bank the buffers for the next connection; dropping the stream
        // closes the fd.
        let (inbuf, outbuf) = slot.conn.into_buffers();
        self.pool.put(inbuf);
        self.pool.put(outbuf);
    }

    /// The shutdown drain: stop accepting, keep delivering completions
    /// and flushing responses until every connection is settled (or the
    /// deadline passes), then close everything. This is what gets the
    /// `shutdown` op's own response onto the wire, and lets in-flight
    /// jobs answer their clients.
    fn drain_and_close(&mut self, events: &mut Vec<Event>) {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        loop {
            self.deliver_completions();
            // Reads are over. Whatever is owed may flush without an
            // EPOLLOUT edge, so try first; connections with nothing
            // left owed can go now, the rest wait for writability (or
            // for their in-flight job).
            let tokens: Vec<u64> = self.slots.keys().copied().collect();
            for token in tokens {
                let Some(slot) = self.slots.get_mut(&token) else { continue };
                if !flush_writes(slot) || slot.settled() {
                    self.close(token, CloseReason::Gone);
                    continue;
                }
                let desired = Interest { readable: false, writable: slot.conn.unwritten() > 0 };
                if desired != slot.interest
                    && self.poller.modify(slot.stream.as_raw_fd(), token, desired).is_ok()
                {
                    slot.interest = desired;
                }
            }
            if self.slots.is_empty() || Instant::now() >= deadline {
                break;
            }
            events.clear();
            let _ = self.poller.wait(events, TICK_MS);
            self.rs.waker.drain();
            for event in events.iter().filter(|e| e.token >= FIRST_CONN_TOKEN && e.closed) {
                self.close(event.token, CloseReason::Gone);
            }
        }
        // Force-close whatever is left (deadline expired).
        let tokens: Vec<u64> = self.slots.keys().copied().collect();
        for token in tokens {
            self.close(token, CloseReason::Gone);
        }
    }
}

/// Pulls everything readable into the connection. Returns `false` when
/// the connection is finished (EOF or a hard error).
fn read_ready(slot: &mut Slot, scratch: &mut [u8], clock: &Clock) -> bool {
    loop {
        match slot.stream.read(scratch) {
            Ok(0) => return false,
            Ok(n) => {
                slot.last_activity = clock.now();
                // A full-buffer read may have more behind it; a short
                // read means the socket is drained (level-triggered, so
                // a wrong guess only costs one more wakeup).
                if !slot.conn.feed(&scratch[..n]) || n < scratch.len() {
                    return true;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Writes as much queued response as the socket accepts. Returns
/// `false` on a dead socket.
fn flush_writes(slot: &mut Slot) -> bool {
    while slot.conn.unwritten() > 0 {
        match slot.stream.write(slot.conn.output()) {
            Ok(0) => return false,
            Ok(n) => slot.conn.advance(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Handles complete frames until the connection goes busy (one
/// in-flight job per connection keeps responses in order), starts
/// closing, or runs out of full lines.
fn pump_frames(shared: &Shared, reply: ReplyTo, slot: &mut Slot) {
    let stats = &shared.reactors[reply.reactor].stats;
    while let Some(next) = slot.conn.next_frame() {
        let Ok(line) = next else {
            shared.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
            break;
        };
        match dispatch::handle_line(shared, line) {
            Handled::Reply(frame, control) => {
                slot.conn.push_frame(&frame);
                if matches!(control, Control::Shutdown) {
                    slot.conn.close_after_drain();
                    slot.shutdown_when_drained = true;
                }
            }
            Handled::Dispatch(request, addr) => {
                // The byte gate reads the gauge: count what this turn
                // has queued so far.
                publish_backlog(stats, slot);
                match dispatch::try_enqueue(shared, request, addr, reply) {
                    Ok(()) => slot.conn.dispatched(),
                    Err(frame) => slot.conn.push_frame(&frame),
                }
            }
        }
    }
}

/// Brings the reactor's `pending_bytes` gauge up to date with this
/// connection's unwritten bytes. Run where the value is read (before
/// the byte gate) and at the end of each turn, so a frame queued and
/// flushed within one turn costs no atomic at all.
fn publish_backlog(stats: &ReactorStats, slot: &mut Slot) {
    let now = slot.conn.unwritten();
    if now > slot.gauged {
        stats.pending_bytes.fetch_add((now - slot.gauged) as u64, Ordering::Relaxed);
    } else if now < slot.gauged {
        stats.pending_bytes.fetch_sub((slot.gauged - now) as u64, Ordering::Relaxed);
    }
    slot.gauged = now;
}
