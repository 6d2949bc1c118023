//! The hardened peer path: pooled connections, a circuit breaker, and
//! an injectable fault hook.
//!
//! Every peer call in the daemon — forwarding, replication, warm-ups,
//! heartbeats, membership announces — is one attempt through
//! [`PeerTable::call`], which layers, in order:
//!
//! 1. **Fault hook** ([`Seams::peer_fault`]): a test's scripted deny or
//!    sever, decided before any real I/O; release daemons carry none.
//! 2. **Circuit breaker**: after [`TRIP_THRESHOLD`] consecutive
//!    failures a peer is *tripped* — calls fail fast (no dial) until
//!    [`PEER_TRIP_COOLDOWN`] elapses on the daemon's [`Clock`], then
//!    exactly one call probes half-open while the rest keep failing
//!    fast. A probe success closes the breaker; a failure re-trips it.
//! 3. **Connection pool**: up to [`POOL_CAP`] idle connections per
//!    peer. A pooled connection that fails on reuse was reaped by the
//!    far end, which says nothing about the peer's health: it counts a
//!    stale retry, not a failure, and the call goes on to a fresh dial.
//!
//! A failed fresh dial is the call's answer. Every caller already has a
//! fallback — a forward computes locally, a replication is dropped, a
//! heartbeat waits for the next tick — so dialing a peer that has just
//! failed a second time would only double the wait.
//!
//! Everything observable — trips, fast-fails, probes, stale retries —
//! lands in [`Metrics`] and surfaces in `status`.
//!
//! [`Seams::peer_fault`]: crate::Seams::peer_fault

use crate::client::ServeClient;
use crate::metrics::Metrics;
use crate::seams::{Clock, PeerFault};
use gpa_json::Json;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a peer call is for. Every wire line a daemon sends a peer
/// belongs to exactly one class, so a fault hook can script one kind
/// of call without counting the background ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerOp {
    /// A user request forwarded to its owner.
    Forward,
    /// `store_get` / `store_put`: replication and warm-from-replica.
    Store,
    /// The periodic liveness probe, which is also a tripped peer's
    /// half-open probe once its cooldown elapses.
    Heartbeat,
    /// `join` / `leave` announcements and roster refreshes.
    Membership,
}

/// What a fault hook does to the current peer call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the call outright (as a refused connection).
    Deny,
    /// Drop the peer's pooled connections and fail the call (as a
    /// reset connection).
    Sever,
}

/// How long a tripped breaker stays open before one call probes the
/// peer half-open.
pub const PEER_TRIP_COOLDOWN: Duration = Duration::from_secs(2);

/// Idle pooled connections kept per peer. Forwarding fan-in is bounded
/// by the worker pool, so a handful of warm connections covers the
/// steady state without holding file descriptors on every shard for
/// every other shard.
pub(crate) const POOL_CAP: usize = 4;

/// Consecutive fresh-connection failures before a peer's breaker
/// trips.
const TRIP_THRESHOLD: u32 = 3;

/// Per-peer live state: pooled connections plus breaker bookkeeping.
#[derive(Default)]
struct PeerState {
    idle: Vec<ServeClient>,
    consecutive_failures: u32,
    /// `Some(when)` while the breaker is open; calls fail fast until
    /// `when`, then one call probes half-open.
    tripped_until: Option<Instant>,
    /// The half-open probe is in flight; other calls fail fast until
    /// it records its outcome.
    probing: bool,
    trips: u64,
}

impl PeerState {
    /// Whether calls fail fast: cooling down, or probe in flight.
    fn open(&self, now: Instant) -> bool {
        self.probing || self.tripped_until.is_some_and(|until| now < until)
    }
}

/// All peer-path state for one daemon.
pub(crate) struct PeerTable {
    peers: Mutex<HashMap<String, PeerState>>,
    io_timeout: Duration,
    clock: Clock,
    fault: Option<PeerFault>,
}

impl PeerTable {
    pub(crate) fn new(io_timeout: Duration, clock: Clock, fault: Option<PeerFault>) -> PeerTable {
        PeerTable { peers: Mutex::new(HashMap::new()), io_timeout, clock, fault }
    }

    /// Runs `f` against a connection to `addr`, through the full
    /// hardening stack. `op` is the call's class, for the fault hook.
    ///
    /// # Errors
    ///
    /// The fresh dial's error; the breaker and the fault hook surface
    /// as synthetic refusals.
    pub(crate) fn call<T>(
        &self,
        addr: &str,
        op: PeerOp,
        metrics: &Metrics,
        mut f: impl FnMut(&mut ServeClient) -> io::Result<T>,
    ) -> io::Result<T> {
        match self.fault.as_ref().and_then(|fault| fault(addr, op)) {
            Some(FaultAction::Deny) => {
                self.record_failure(addr, metrics);
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("fault injection denies {addr}"),
                ));
            }
            Some(FaultAction::Sever) => {
                self.drop_pool(addr);
                self.record_failure(addr, metrics);
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    format!("fault injection severs {addr}"),
                ));
            }
            None => {}
        }
        self.breaker_gate(addr, metrics)?;
        // A pooled connection the far end reaped fails here; that says
        // nothing about the peer, so it costs a fresh dial, not a
        // breaker count.
        if let Some(mut client) = self.checkout(addr) {
            if let Ok(value) = f(&mut client) {
                self.record_success(addr, client);
                return Ok(value);
            }
            metrics.stale_retries.fetch_add(1, Ordering::Relaxed);
        }
        match self.dial(addr).and_then(|mut client| f(&mut client).map(|v| (v, client))) {
            Ok((value, client)) => {
                self.record_success(addr, client);
                Ok(value)
            }
            Err(e) => {
                self.record_failure(addr, metrics);
                Err(e)
            }
        }
    }

    fn dial(&self, addr: &str) -> io::Result<ServeClient> {
        let mut client = ServeClient::connect_timeout(addr, self.io_timeout)?;
        client.set_timeouts(Some(self.io_timeout))?;
        Ok(client)
    }

    /// Fast-fails while `addr`'s breaker is open; lets exactly the
    /// first post-cooldown call through as the half-open probe, and
    /// fast-fails the rest until that probe records its outcome.
    fn breaker_gate(&self, addr: &str, metrics: &Metrics) -> io::Result<()> {
        let mut peers = self.peers.lock().expect("peer table lock");
        let state = peers.entry(addr.to_string()).or_default();
        if state.open(self.clock.now()) {
            metrics.breaker_fast_fails.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("peer {addr} breaker open"),
            ));
        }
        if state.tripped_until.is_some() {
            state.probing = true;
            metrics.peer_probes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn checkout(&self, addr: &str) -> Option<ServeClient> {
        self.peers.lock().expect("peer table lock").get_mut(addr)?.idle.pop()
    }

    fn drop_pool(&self, addr: &str) {
        if let Some(state) = self.peers.lock().expect("peer table lock").get_mut(addr) {
            state.idle.clear();
        }
    }

    fn record_success(&self, addr: &str, client: ServeClient) {
        let mut peers = self.peers.lock().expect("peer table lock");
        let state = peers.entry(addr.to_string()).or_default();
        state.consecutive_failures = 0;
        state.tripped_until = None;
        state.probing = false;
        if state.idle.len() < POOL_CAP {
            state.idle.push(client);
        }
    }

    /// Counts a failure; at the threshold the breaker trips, and a
    /// failed probe re-trips it.
    fn record_failure(&self, addr: &str, metrics: &Metrics) {
        let mut peers = self.peers.lock().expect("peer table lock");
        let state = peers.entry(addr.to_string()).or_default();
        state.consecutive_failures += 1;
        let closed_or_probing = state.probing || state.tripped_until.is_none();
        if state.consecutive_failures >= TRIP_THRESHOLD && closed_or_probing {
            state.tripped_until = Some(self.clock.now() + PEER_TRIP_COOLDOWN);
            state.probing = false;
            state.trips += 1;
            metrics.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether `addr`'s breaker is currently open (calls fail fast).
    /// The liveness heartbeat skips a member only while this holds;
    /// once the cooldown elapses, its next heartbeat is the half-open
    /// probe.
    pub(crate) fn is_tripped(&self, addr: &str) -> bool {
        let now = self.clock.now();
        self.peers.lock().expect("peer table lock").get(addr).is_some_and(|s| s.open(now))
    }

    /// The `status.cluster.peers` object: one entry per peer the
    /// daemon has talked to.
    pub(crate) fn status_json(&self) -> Json {
        let now = self.clock.now();
        let peers = self.peers.lock().expect("peer table lock");
        let mut sorted: Vec<_> = peers.iter().collect();
        sorted.sort_by_key(|(addr, _)| *addr);
        sorted.into_iter().fold(Json::object(), |doc, (addr, state)| {
            doc.with(
                addr,
                Json::object()
                    .with("state", if state.open(now) { "tripped" } else { "ok" })
                    .with("failures", u64::from(state.consecutive_failures))
                    .with("trips", state.trips)
                    .with("pooled", state.idle.len() as u64),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    const IO_TIMEOUT: Duration = Duration::from_millis(200);

    /// An address nothing listens on: reserved port 1 refuses at once.
    const DEAD: &str = "127.0.0.1:1";

    /// A status round trip: against a listener that never accepts, the
    /// dial completes in the kernel backlog and the read waits out the
    /// I/O timeout.
    fn ask(client: &mut ServeClient) -> io::Result<()> {
        client.request_line("{\"op\":\"status\"}").map(drop)
    }

    /// A fault hook that denies the first `n` forwards and passes
    /// every other call.
    fn deny_forwards(n: u64) -> PeerFault {
        let seen = AtomicU64::new(0);
        Arc::new(move |_, op| {
            let fire = op == PeerOp::Forward && seen.fetch_add(1, Ordering::Relaxed) < n;
            fire.then_some(FaultAction::Deny)
        })
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_fast_fails() {
        let (clock, metrics) = (Clock::manual(), Metrics::default());
        let peers = PeerTable::new(IO_TIMEOUT, clock.clone(), None);
        for _ in 0..TRIP_THRESHOLD {
            assert!(peers.call(DEAD, PeerOp::Forward, &metrics, |_| Ok(())).is_err());
        }
        assert_eq!(metrics.breaker_trips.load(Ordering::Relaxed), 1);
        // One nanosecond short of the cooldown the breaker is still
        // open: the call fails fast.
        clock.advance(PEER_TRIP_COOLDOWN - Duration::from_nanos(1));
        assert!(peers.is_tripped(DEAD));
        let err = peers.call(DEAD, PeerOp::Forward, &metrics, |_| Ok(())).unwrap_err();
        assert!(err.to_string().contains("breaker open"), "{err}");
        assert_eq!(metrics.breaker_fast_fails.load(Ordering::Relaxed), 1);
        // At the cooldown the next call probes (and fails again,
        // re-tripping).
        clock.advance(Duration::from_nanos(1));
        assert!(!peers.is_tripped(DEAD));
        let err = peers.call(DEAD, PeerOp::Forward, &metrics, |_| Ok(())).unwrap_err();
        assert!(!err.to_string().contains("breaker open"), "{err}");
        assert_eq!(metrics.peer_probes.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.breaker_trips.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.breaker_fast_fails.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_failed_peer_call_dials_once() {
        let blackhole = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = blackhole.local_addr().unwrap().to_string();
        let metrics = Metrics::default();
        let peers = PeerTable::new(IO_TIMEOUT, Clock::System, None);
        for _ in 0..TRIP_THRESHOLD {
            let started = Instant::now();
            assert!(peers.call(&addr, PeerOp::Forward, &metrics, ask).is_err());
            let took = started.elapsed();
            assert!(took < 2 * IO_TIMEOUT, "one dial waits out one timeout, took {took:?}");
        }
        let started = Instant::now();
        let err = peers.call(&addr, PeerOp::Forward, &metrics, ask).unwrap_err();
        let took = started.elapsed();
        assert!(err.to_string().contains("breaker open"), "{err}");
        assert!(took < Duration::from_millis(50), "the tripped call dials nothing, took {took:?}");
        assert_eq!(metrics.breaker_fast_fails.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn the_half_open_probe_is_exclusive() {
        let blackhole = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = blackhole.local_addr().unwrap().to_string();
        let (clock, metrics) = (Clock::manual(), Metrics::default());
        let peers = PeerTable::new(Duration::from_secs(1), clock.clone(), Some(deny_forwards(3)));
        for _ in 0..TRIP_THRESHOLD {
            assert!(peers.call(&addr, PeerOp::Forward, &metrics, |_| Ok(())).is_err());
        }
        assert_eq!(metrics.breaker_trips.load(Ordering::Relaxed), 1, "tripped with no I/O");
        clock.advance(PEER_TRIP_COOLDOWN);
        let (entered, probe_in_flight) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let probe = scope.spawn(|| {
                peers.call(&addr, PeerOp::Forward, &metrics, |client| {
                    entered.send(()).unwrap();
                    ask(client)
                })
            });
            // The probe is past the gate and waiting on the blackhole.
            probe_in_flight.recv().unwrap();
            let err = peers.call(&addr, PeerOp::Forward, &metrics, ask).unwrap_err();
            assert!(err.to_string().contains("breaker open"), "{err}");
            assert_eq!(metrics.breaker_fast_fails.load(Ordering::Relaxed), 1);
            assert!(probe.join().unwrap().is_err(), "the blackhole never answers the probe");
        });
        assert_eq!(metrics.peer_probes.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.breaker_trips.load(Ordering::Relaxed), 2, "the failed probe re-trips");
    }

    #[test]
    fn a_fault_hook_fails_its_calls_before_the_breaker_and_any_io() {
        let metrics = Metrics::default();
        let deny = deny_forwards(2);
        let fault: PeerFault = Arc::new(move |addr, op| match op {
            PeerOp::Store => Some(FaultAction::Sever),
            _ => deny(addr, op),
        });
        let peers = PeerTable::new(IO_TIMEOUT, Clock::manual(), Some(fault));
        for _ in 0..2 {
            let err = peers.call(DEAD, PeerOp::Forward, &metrics, |_| Ok(())).unwrap_err();
            assert!(err.to_string().contains("fault injection denies"), "{err}");
        }
        // A heartbeat passes the hook, fails its real dial and is the
        // third failure in a row.
        let err = peers.call(DEAD, PeerOp::Heartbeat, &metrics, |_| Ok(())).unwrap_err();
        assert!(!err.to_string().contains("fault injection"), "{err}");
        assert!(peers.is_tripped(DEAD));
        // The deny window is spent, so the third forward meets the open
        // breaker; the hook still decides before the breaker does.
        let err = peers.call(DEAD, PeerOp::Forward, &metrics, |_| Ok(())).unwrap_err();
        assert!(err.to_string().contains("breaker open"), "{err}");
        let err = peers.call(DEAD, PeerOp::Store, &metrics, |_| Ok(())).unwrap_err();
        assert!(err.to_string().contains("fault injection severs"), "{err}");
        assert_eq!(metrics.breaker_fast_fails.load(Ordering::Relaxed), 1);
    }
}
