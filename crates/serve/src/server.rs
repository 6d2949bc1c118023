//! The daemon: bring-up, shared state, and cooperative shutdown of N
//! nonblocking reactor threads over one bounded worker pool and one
//! shared [`Session`] — optionally sharded across peers by consistent
//! hashing.
//!
//! ## Module map
//!
//! | module | owns |
//! |---|---|
//! | `server` (here) | [`ServerConfig`], the shared state every thread sees, listener binding and the accept-path choice, thread bring-up, shutdown |
//! | `event_loop` | one reactor thread: epoll loop, accept, socket reads/writes, idle sweep, buffer pool, per-reactor gauges, shutdown drain |
//! | `conn` | one connection's framing state machine — bytes in, request lines out, response frames queued and drained — with no socket, clock or daemon state |
//! | `dispatch` | request line → inline answer or queued job; admission control; the worker pool; forward / fallback / warm-from-replica |
//! | `cluster` | roster and ring, membership ops, stale-epoch gate, self-leave, replicator, heartbeats |
//! | `status` | the `status` body, with connection roll-ups derived from the per-reactor counters |
//! | `seams` | the test seam: the clock the deadlines read, a peer-fault closure, a hook before each job |
//!
//! ## Connections
//!
//! Each reactor thread drives its share of the connections through an
//! epoll readiness loop (`reactor.rs`): every socket is a small state
//! machine (read-accumulate → frame → handle or enqueue → write-drain),
//! so thousands of idle connections cost zero threads and no stack.
//! Workers hand completed frames back through the owning reactor's
//! completion list plus an eventfd waker.
//!
//! ## Admission control
//!
//! Work is *rejected*, never silently buffered: a bounded job queue
//! (the backpressure frame), a pending-response byte budget split
//! evenly across the reactors (shed with an error frame before parsing
//! more), and a per-connection write-buffer gate that stops reading
//! from a client that does not drain its responses. Idle connections
//! past the deadline are reaped by the reactor tick and counted.
//!
//! ## Cluster mode
//!
//! With `--peers` (or `--join`), every daemon keeps an epoch-versioned
//! `Roster` of members and derives the consistent-hash [`Ring`] from
//! it. `analyze`/`analyze_profile` requests whose content address
//! hashes to another member are forwarded there (marked `fwd`, stamped
//! with the sender's epoch) and the owner's response frame is relayed
//! **verbatim** — computed, cached, forwarded and replicated responses
//! are byte-identical. An owner replicates each body it computes to
//! the key's next distinct member on the ring (`store_put`), and an
//! owned miss asks that member (`store_get`) before recomputing.
//!
//! Membership is live: `join` adds a shard (the seed answers with the
//! bumped roster and every member catches up lazily — a forward whose
//! epoch is stale earns a `stale_epoch_frame` instead of a
//! wrong-owner answer, and a sender that is *ahead* triggers a
//! `ring_status` refresh), `leave` removes one. No body is shipped
//! because the roster moved: a departed owner's keys pass to their
//! replica holders, and a joiner pulls the keys it takes from their
//! old owner, now their replica. Every peer call is one attempt on the
//! hardened path in `peer.rs`: pooled connections and a circuit breaker
//! per peer; a failed call takes its caller's fallback.
//!
//! [`Ring`]: crate::ring::Ring
//!
//! Shutdown (the `shutdown` op, or [`ServerHandle::shutdown`]) is
//! cooperative: the flag flips, workers drain the queue, the reactor
//! flushes pending responses (bounded drain), and every thread joins.

use crate::cluster::{self, Cluster};
use crate::dispatch::{self, Work};
use crate::event_loop;
use crate::metrics::{Metrics, ReactorStats};
use crate::protocol::DEFAULT_ADDR;
use crate::reactor::Waker;
use crate::seams::Seams;
use crate::store::ReportStore;
use gpa_pipeline::Session;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Hard cap on reactor threads: accept-path fan-out saturates long
/// before the worker pool does, and each reactor costs a thread, an
/// epoll instance and an eventfd.
pub const MAX_REACTORS: usize = 8;

/// Daemon configuration: what `gpa serve`'s flags set, plus
/// `max_pending_bytes`, which only embedders set.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker-pool width.
    pub workers: usize,
    /// Reactor-thread count for the reactor engine. `0` (the default)
    /// picks `available_parallelism`; either way the effective count is
    /// clamped to `1..=`[`MAX_REACTORS`]. `1` reproduces the
    /// single-reactor engine exactly — byte- and behavior-identical.
    pub reactors: usize,
    /// Bounded request-queue capacity (backpressure threshold).
    pub queue: usize,
    /// In-memory report-store capacity (entries, LRU-evicted).
    pub store_capacity: usize,
    /// Optional on-disk report persistence directory.
    pub persist_dir: Option<PathBuf>,
    /// Peer shard addresses (cluster mode when nonempty). The ring is
    /// built over `peers ∪ {advertise}`, sorted and deduplicated, so
    /// every shard handed the same roster agrees on ownership.
    pub peers: Vec<String>,
    /// The address *peers* reach this daemon at (defaults to the bound
    /// address, which is right whenever the bind address is routable).
    pub advertise: Option<String>,
    /// A running member to `join` at startup: the daemon announces
    /// itself there, adopts the answered roster, and enters the ring
    /// without any shard restarting. Implies cluster mode.
    pub join: Option<String>,
    /// Daemon-wide budget on buffered-but-unwritten response bytes;
    /// past it, new jobs are shed with a backpressure frame.
    pub max_pending_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: DEFAULT_ADDR.to_string(),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            reactors: 0,
            queue: 64,
            store_capacity: 128,
            persist_dir: None,
            peers: Vec::new(),
            advertise: None,
            join: None,
            max_pending_bytes: 64 * 1024 * 1024,
        }
    }
}

impl ServerConfig {
    /// A loopback config on an ephemeral port (tests, benches).
    pub fn ephemeral() -> Self {
        ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() }
    }

    /// The reactor-thread count this config actually runs: `0` resolves
    /// to `available_parallelism`, and everything is clamped to
    /// `1..=`[`MAX_REACTORS`].
    pub(crate) fn effective_reactors(&self) -> usize {
        let requested = if self.reactors == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.reactors
        };
        requested.clamp(1, MAX_REACTORS)
    }
}

/// How accepted sockets reach their reactor. Never configured: the
/// daemon picks from what it can observe (who bound the listener, how
/// many reactors run, whether the platform takes `SO_REUSEPORT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcceptPath {
    /// Every reactor owns its own `SO_REUSEPORT` listener on the shared
    /// port; the kernel load-balances connections across the group. The
    /// default whenever the daemon binds its own sockets and the
    /// platform takes the option.
    Reuseport,
    /// One listener, owned by reactor 0, which accepts everything and
    /// round-robins the sockets to the other reactors through their
    /// wakers. The fallback for externally-bound listeners
    /// ([`serve_on`]) and reuseport-less platforms, and the whole story
    /// with one reactor.
    RoundRobin,
}

impl AcceptPath {
    pub(crate) fn name(self) -> &'static str {
        match self {
            AcceptPath::Reuseport => "reuseport",
            AcceptPath::RoundRobin => "round_robin",
        }
    }
}

/// One reactor thread's cross-thread surface: the handles workers (and
/// the round-robin acceptor) use to reach it. Everything thread-local
/// to the reactor — poller, connection table, buffer pool — lives on
/// its own stack in `event_loop`.
pub(crate) struct ReactorShared {
    /// Wakes the reactor out of `epoll_wait` (completions, handed-off
    /// sockets, shutdown).
    pub(crate) waker: Waker,
    /// Worker → reactor finished frames, drained every loop turn.
    pub(crate) completions: Mutex<Vec<(u64, String)>>,
    /// Sockets accepted elsewhere (round-robin path) waiting for this
    /// reactor to register them.
    pub(crate) incoming: Mutex<Vec<TcpStream>>,
    /// This reactor's counters (the `status.reactors` entry).
    pub(crate) stats: ReactorStats,
    /// This reactor's share of the daemon's pending-byte budget: the
    /// admission gate checks the reactor's *own* backlog against its
    /// own share, so one reactor's slow-client pile-up cannot shed
    /// jobs arriving on the others.
    pub(crate) byte_budget: u64,
}

/// The state every daemon thread sees.
pub(crate) struct Shared {
    pub(crate) session: Arc<Session>,
    pub(crate) store: ReportStore,
    pub(crate) metrics: Metrics,
    /// When the daemon came up (the `status.uptime_ms` clock).
    pub(crate) started: Instant,
    pub(crate) queue: Mutex<VecDeque<Work>>,
    pub(crate) available: Condvar,
    pub(crate) queue_capacity: usize,
    pub(crate) workers: usize,
    pub(crate) persisted: bool,
    /// The clock and hooks a test injected ([`Seams::default`] in a
    /// release daemon).
    pub(crate) seams: Seams,
    pub(crate) cluster: Option<Cluster>,
    pub(crate) shutting_down: AtomicBool,
    local_addr: SocketAddr,
    /// The reactor threads' shared surfaces, indexed by reactor id.
    pub(crate) reactors: Vec<ReactorShared>,
    /// How accepted sockets are distributed across the reactors.
    pub(crate) accept: AcceptPath,
}

/// A running daemon: its address and the threads behind it.
///
/// Dropping the handle shuts the daemon down and joins every thread;
/// [`ServerHandle::join`] blocks until something else (normally a
/// client's `shutdown` op) stops it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    /// Reactors, workers, and (cluster mode) the replicator and chore
    /// threads.
    threads: Vec<JoinHandle<()>>,
}

/// Binds and starts the daemon.
///
/// # Errors
///
/// When the address cannot be bound or the persist directory cannot be
/// created.
pub fn serve(session: Arc<Session>, config: ServerConfig) -> io::Result<ServerHandle> {
    let n = config.effective_reactors();
    if n > 1 {
        // Multi-reactor default: one SO_REUSEPORT listener per reactor,
        // kernel-balanced. Falls back to the single-listener round-robin
        // path below when the platform refuses the option (or the
        // address itself is unusable — in which case the plain bind
        // reports the real error).
        if let Ok(listeners) = bind_reuseport_group(&config.addr, n) {
            let seams = Seams::default();
            return serve_listeners(session, listeners, AcceptPath::Reuseport, config, seams);
        }
    }
    let listener = TcpListener::bind(&config.addr)?;
    serve_on(session, listener, config)
}

/// Binds `count` `SO_REUSEPORT` listeners on one address (resolving an
/// ephemeral port once, with the first bind).
fn bind_reuseport_group(addr: &str, count: usize) -> io::Result<Vec<TcpListener>> {
    use std::net::ToSocketAddrs;
    let target = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
    })?;
    let first = crate::reactor::reuseport_listener(target)?;
    let local = first.local_addr()?;
    let mut group = vec![first];
    for _ in 1..count {
        group.push(crate::reactor::reuseport_listener(local)?);
    }
    Ok(group)
}

/// Starts the daemon on an already-bound listener. This is how cluster
/// tests bootstrap: bind every shard first (learning the ephemeral
/// ports), then start each daemon with the full peer roster.
///
/// With more than one reactor configured, the daemon first tries to
/// grow the listener into an `SO_REUSEPORT` group; an externally-bound
/// listener normally lacks the option (it must be set before `bind`),
/// so the attempt fails cleanly and reactor 0 becomes the single
/// acceptor, round-robining sockets to its siblings.
///
/// # Errors
///
/// When the listener is unusable or the persist directory cannot be
/// created.
pub fn serve_on(
    session: Arc<Session>,
    listener: TcpListener,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    serve_on_with(session, listener, config, Seams::default())
}

/// [`serve_on`] with injected [`Seams`]: the one entry point that
/// takes a test clock or hooks. A listener bound by
/// [`reuseport_listener`](crate::reactor::reuseport_listener) still
/// grows into an `SO_REUSEPORT` group.
///
/// # Errors
///
/// As [`serve_on`].
pub fn serve_on_with(
    session: Arc<Session>,
    listener: TcpListener,
    config: ServerConfig,
    seams: Seams,
) -> io::Result<ServerHandle> {
    let n = config.effective_reactors();
    if n > 1 {
        if let Ok(local) = listener.local_addr() {
            if local.port() != 0 {
                if let Ok(siblings) = bind_reuseport_group(&local.to_string(), n - 1) {
                    let mut listeners = vec![listener];
                    listeners.extend(siblings);
                    return serve_listeners(
                        session,
                        listeners,
                        AcceptPath::Reuseport,
                        config,
                        seams,
                    );
                }
            }
        }
    }
    serve_listeners(session, vec![listener], AcceptPath::RoundRobin, config, seams)
}

/// The common daemon bring-up: `listeners` is one listener per reactor
/// ([`AcceptPath::Reuseport`]) or exactly one ([`AcceptPath::RoundRobin`]).
fn serve_listeners(
    session: Arc<Session>,
    listeners: Vec<TcpListener>,
    accept_path: AcceptPath,
    config: ServerConfig,
    seams: Seams,
) -> io::Result<ServerHandle> {
    let store = ReportStore::new(config.store_capacity, config.persist_dir.clone())?;
    let local_addr = listeners[0].local_addr()?;
    let workers = config.workers.max(1);
    let n_reactors = config.effective_reactors();
    let reactors = (0..n_reactors)
        .map(|_| {
            Ok(ReactorShared {
                waker: Waker::new()?,
                completions: Mutex::new(Vec::new()),
                incoming: Mutex::new(Vec::new()),
                stats: ReactorStats::new(),
                byte_budget: config.max_pending_bytes / n_reactors as u64,
            })
        })
        .collect::<io::Result<Vec<_>>>()?;
    let cluster_mode =
        !config.peers.is_empty() || config.advertise.is_some() || config.join.is_some();
    let (cluster, queues) = if cluster_mode {
        let self_addr = config.advertise.clone().unwrap_or_else(|| local_addr.to_string());
        let (cluster, queues) = Cluster::new(&config, self_addr, &seams)?;
        (Some(cluster), Some(queues))
    } else {
        (None, None)
    };
    let shared = Arc::new(Shared {
        session,
        store,
        metrics: Metrics::new(),
        started: Instant::now(),
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        queue_capacity: config.queue.max(1),
        workers,
        persisted: config.persist_dir.is_some(),
        seams,
        cluster,
        shutting_down: AtomicBool::new(false),
        local_addr,
        reactors,
        accept: accept_path,
    });
    let mut threads = Vec::new();
    if let Some((repl_rx, refresh_rx)) = queues {
        threads.push(spawn(&shared, "gpa-serve-replicator".to_string(), move |sh| {
            cluster::replicator_loop(sh, &repl_rx);
        })?);
        let started = shared.seams.clock.now();
        threads.push(spawn(&shared, "gpa-serve-cluster".to_string(), move |sh| {
            cluster::cluster_loop(sh, &refresh_rx, started);
        })?);
    }
    for i in 0..workers {
        threads.push(spawn(&shared, format!("gpa-serve-worker-{i}"), dispatch::worker_loop)?);
    }
    // Reuseport: every reactor owns listeners[i]. Round-robin: reactor 0
    // owns the single listener, the rest poll only their waker and
    // adopt handed-off sockets.
    let mut listeners = listeners.into_iter();
    for idx in 0..n_reactors {
        let listener = listeners.next();
        threads.push(spawn(&shared, format!("gpa-serve-reactor-{idx}"), move |sh| {
            event_loop::run(sh, idx, listener);
        })?);
    }
    let handle = ServerHandle { shared, threads };
    if let Some(seed) = &config.join {
        // Announce to the seed and adopt its answer before reporting
        // the daemon up; a failed join tears everything down (the
        // operator pointed us at a dead or misaddressed member).
        cluster::join_cluster(&handle.shared, seed)?;
    }
    Ok(handle)
}

/// Starts one named daemon thread over the shared state.
fn spawn(
    shared: &Arc<Shared>,
    name: String,
    body: impl FnOnce(&Shared) + Send + 'static,
) -> io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new().name(name).spawn(move || body(&shared))
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Initiates shutdown programmatically (idempotent; equivalent to a
    /// client's `shutdown` op).
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// How many reactor threads this daemon runs.
    pub fn reactors(&self) -> usize {
        self.shared.reactors.len()
    }

    /// The accept path in effect: `"reuseport"` or `"round_robin"`.
    pub fn accept_path(&self) -> &'static str {
        self.shared.accept.name()
    }

    /// Blocks until the daemon has fully stopped: the reactors have
    /// drained, the queue is empty, and every thread is joined.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        trigger_shutdown(&self.shared);
        self.join_inner();
    }
}

/// Flips the daemon into shutdown (idempotent) and wakes every thread
/// that could be parked so it observes the flag.
pub(crate) fn trigger_shutdown(shared: &Shared) {
    if shared.shutting_down.swap(true, Ordering::AcqRel) {
        return;
    }
    // Wake idle workers (under the lock, so a worker between its
    // empty-check and its wait cannot miss it).
    {
        let _guard = shared.queue.lock().expect("queue lock");
        shared.available.notify_all();
    }
    // Let the replicator and the chore thread drain and exit: dropping
    // the only long-lived senders disconnects their channels.
    if let Some(cluster) = &shared.cluster {
        cluster.repl_tx.lock().expect("repl tx").take();
        cluster.refresh_tx.lock().expect("refresh tx").take();
    }
    // Pop every reactor out of epoll_wait.
    for reactor in &shared.reactors {
        reactor.waker.wake();
    }
}
