//! The hardened peer path: pooled connections, a circuit breaker, a
//! retry budget, and deterministic fault injection.
//!
//! Every peer call in the daemon — forwarding, replication, handoff,
//! membership announces — goes through [`PeerTable::call`], which
//! layers, in order:
//!
//! 1. **Fault injection** ([`FaultPlan`]): a scripted deny/delay/sever
//!    decided before any real I/O, so chaos runs replay exactly.
//! 2. **Circuit breaker**: after [`TRIP_THRESHOLD`] consecutive
//!    failures a peer is *tripped* — calls fail fast (no dial) until a
//!    cooldown elapses, then exactly one call probes half-open. A
//!    probe success closes the breaker; a failure re-trips it.
//! 3. **Connection pool**: up to [`POOL_CAP`] idle connections per
//!    peer. A pooled connection that fails on reuse is *stale*
//!    ([`ClientError::StaleConnection`]) and retried on a fresh dial
//!    for free — the far end merely reaped it.
//! 4. **Retry budget**: a token bucket shared across all peers. A
//!    failed fresh call may retry once, after a jittered exponential
//!    backoff, if a token is available — so retries cannot amplify an
//!    outage into a retry storm. Callers on best-effort paths
//!    (replication, handoff, probes) pass `retry: false` and never
//!    spend budget.
//!
//! Everything observable — trips, fast-fails, probes, stale retries,
//! budget spent/denied — lands in [`Metrics`] and surfaces in
//! `status`.

use crate::client::{ClientError, ServeClient};
use crate::faults::{FaultAction, FaultPlan, PeerOp};
use crate::metrics::Metrics;
use gpa_json::Json;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Idle pooled connections kept per peer. Forwarding fan-in is bounded
/// by the worker pool, so a handful of warm connections covers the
/// steady state without holding file descriptors on every shard for
/// every other shard.
pub(crate) const POOL_CAP: usize = 4;

/// Consecutive fresh-connection failures before a peer's breaker
/// trips.
const TRIP_THRESHOLD: u32 = 3;

/// Base backoff before a budgeted retry; doubled per attempt and
/// widened by up to one base of seeded jitter.
const BACKOFF_BASE_MS: u64 = 25;

/// Retry-budget refill rate (tokens per second). Refill is lazy, on
/// the next budget check.
const BUDGET_REFILL_PER_SEC: f64 = 4.0;

/// Per-peer live state: pooled connections plus breaker bookkeeping.
#[derive(Default)]
struct PeerState {
    idle: Vec<ServeClient>,
    consecutive_failures: u32,
    /// `Some(when)` while the breaker is open; calls fail fast until
    /// `when`, then one call probes half-open.
    tripped_until: Option<Instant>,
    trips: u64,
}

/// The shared retry-budget token bucket.
struct Budget {
    tokens: f64,
    last_refill: Instant,
}

/// All peer-path state for one daemon.
pub(crate) struct PeerTable {
    peers: Mutex<HashMap<String, PeerState>>,
    budget: Mutex<Budget>,
    budget_capacity: u32,
    trip_cooldown: Duration,
    io_timeout: Duration,
    /// Seeded LCG for backoff jitter (from the fault plan's seed when
    /// present, so chaos timing replays).
    jitter: Mutex<u64>,
    faults: Option<FaultPlan>,
}

impl PeerTable {
    pub(crate) fn new(
        io_timeout: Duration,
        trip_cooldown: Duration,
        budget_capacity: u32,
        faults: Option<FaultPlan>,
    ) -> PeerTable {
        let seed = faults.as_ref().map_or(0x5eed, FaultPlan::seed);
        PeerTable {
            peers: Mutex::new(HashMap::new()),
            budget: Mutex::new(Budget {
                tokens: f64::from(budget_capacity),
                last_refill: Instant::now(),
            }),
            budget_capacity,
            trip_cooldown,
            io_timeout,
            jitter: Mutex::new(seed | 1),
            faults,
        }
    }

    /// The active fault plan, if any.
    pub(crate) fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Runs `f` against a connection to `addr`, through the full
    /// hardening stack. `op` is the call's class, for the fault plan;
    /// `retry` decides whether a failed fresh call may spend a budget
    /// token on one backed-off retry.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] once every layer has given up; the breaker
    /// and the fault plan surface as synthetic refusals.
    pub(crate) fn call<T>(
        &self,
        addr: &str,
        op: PeerOp,
        metrics: &Metrics,
        retry: bool,
        mut f: impl FnMut(&mut ServeClient) -> io::Result<T>,
    ) -> Result<T, ClientError> {
        match self.faults.as_ref().and_then(|plan| plan.check(addr, op)) {
            Some(FaultAction::Deny) => {
                self.record_failure(addr, metrics);
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("fault injection denies {addr}"),
                )));
            }
            Some(FaultAction::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(FaultAction::Sever) => {
                self.drop_pool(addr);
                self.record_failure(addr, metrics);
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    format!("fault injection severs {addr}"),
                )));
            }
            None => {}
        }
        self.breaker_gate(addr, metrics)?;
        // Pooled attempt: a failure here means the far end reaped the
        // idle connection — typed as retryable, so it earns a fresh
        // dial without spending budget.
        if let Some(outcome) = self.attempt_pooled(addr, &mut f) {
            match outcome {
                Ok(value) => return Ok(value),
                Err(stale) if stale.is_retryable() => {
                    metrics.stale_retries.fetch_add(1, Ordering::Relaxed);
                }
                Err(fatal) => return Err(fatal),
            }
        }
        // Fresh dial, with at most one budgeted, backed-off retry.
        let mut attempt = 0u32;
        loop {
            match self.dial(addr).and_then(|mut client| match f(&mut client) {
                Ok(value) => Ok((value, client)),
                Err(e) => Err(e),
            }) {
                Ok((value, client)) => {
                    self.record_success(addr, client);
                    return Ok(value);
                }
                Err(e) => {
                    self.record_failure(addr, metrics);
                    if retry && attempt == 0 && self.take_token(metrics) {
                        attempt += 1;
                        std::thread::sleep(self.backoff(attempt));
                        continue;
                    }
                    return Err(ClientError::Io(e));
                }
            }
        }
    }

    /// Tries `f` on a pooled connection, if one is parked. A failure
    /// is [`ClientError::StaleConnection`] — the far end reaped the
    /// idle socket, which says nothing about the peer's health.
    fn attempt_pooled<T>(
        &self,
        addr: &str,
        f: &mut impl FnMut(&mut ServeClient) -> io::Result<T>,
    ) -> Option<Result<T, ClientError>> {
        let mut client = self.checkout(addr)?;
        match f(&mut client) {
            Ok(value) => {
                self.record_success(addr, client);
                Some(Ok(value))
            }
            Err(e) => Some(Err(ClientError::StaleConnection(e))),
        }
    }

    fn dial(&self, addr: &str) -> io::Result<ServeClient> {
        let mut client = ServeClient::connect_timeout(addr, self.io_timeout)?;
        client.set_timeouts(Some(self.io_timeout))?;
        Ok(client)
    }

    /// Fast-fails while `addr`'s breaker is open; lets exactly the
    /// first post-cooldown call through as the half-open probe.
    fn breaker_gate(&self, addr: &str, metrics: &Metrics) -> Result<(), ClientError> {
        let mut peers = self.peers.lock().expect("peer table lock");
        let state = peers.entry(addr.to_string()).or_default();
        if let Some(until) = state.tripped_until {
            if Instant::now() < until {
                metrics.breaker_fast_fails.fetch_add(1, Ordering::Relaxed);
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("peer {addr} breaker open"),
                )));
            }
            // Half-open: this call probes. On failure the (still at
            // threshold) failure count re-trips immediately.
            state.tripped_until = None;
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
        if state.idle.len() < POOL_CAP {
            state.idle.push(client);
        }
    }

    fn record_failure(&self, addr: &str, metrics: &Metrics) {
        let mut peers = self.peers.lock().expect("peer table lock");
        let state = peers.entry(addr.to_string()).or_default();
        state.consecutive_failures += 1;
        if state.consecutive_failures >= TRIP_THRESHOLD && state.tripped_until.is_none() {
            state.tripped_until = Some(Instant::now() + self.trip_cooldown);
            state.trips += 1;
            metrics.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Takes one retry token if available, refilling lazily.
    fn take_token(&self, metrics: &Metrics) -> bool {
        let mut budget = self.budget.lock().expect("retry budget lock");
        let now = Instant::now();
        let refill = now.duration_since(budget.last_refill).as_secs_f64() * BUDGET_REFILL_PER_SEC;
        budget.tokens = (budget.tokens + refill).min(f64::from(self.budget_capacity));
        budget.last_refill = now;
        if budget.tokens >= 1.0 {
            budget.tokens -= 1.0;
            metrics.retries_spent.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            metrics.retries_denied.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Jittered exponential backoff for attempt `n` (1-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let mut lcg = self.jitter.lock().expect("jitter lock");
        *lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let jitter = (*lcg >> 33) % BACKOFF_BASE_MS;
        Duration::from_millis(BACKOFF_BASE_MS * 2u64.pow(attempt.saturating_sub(1)) + jitter)
    }

    /// Whether `addr`'s breaker is currently open (calls fail fast).
    /// The liveness heartbeat skips tripped peers — the cooldown probe
    /// path owns them until they answer again.
    pub(crate) fn is_tripped(&self, addr: &str) -> bool {
        let now = Instant::now();
        self.peers
            .lock()
            .expect("peer table lock")
            .get(addr)
            .is_some_and(|state| state.tripped_until.is_some_and(|until| now < until))
    }

    /// Peers whose breaker cooldown has elapsed — candidates for a
    /// background probe.
    pub(crate) fn ready_to_probe(&self) -> Vec<String> {
        let now = Instant::now();
        self.peers
            .lock()
            .expect("peer table lock")
            .iter()
            .filter(|(_, state)| state.tripped_until.is_some_and(|until| now >= until))
            .map(|(addr, _)| addr.clone())
            .collect()
    }

    /// The `status.cluster.peers` object: one entry per peer the
    /// daemon has talked to.
    pub(crate) fn status_json(&self) -> Json {
        let now = Instant::now();
        let mut doc = Json::object();
        let mut peers: Vec<_> = self
            .peers
            .lock()
            .expect("peer table lock")
            .iter()
            .map(|(addr, state)| {
                let tripped = state.tripped_until.is_some_and(|until| now < until);
                (addr.clone(), tripped, state.consecutive_failures, state.trips, state.idle.len())
            })
            .collect();
        peers.sort_by(|a, b| a.0.cmp(&b.0));
        for (addr, tripped, failures, trips, pooled) in peers {
            doc = doc.with(
                &addr,
                Json::object()
                    .with("state", if tripped { "tripped" } else { "ok" })
                    .with("failures", u64::from(failures))
                    .with("trips", trips)
                    .with("pooled", pooled as u64),
            );
        }
        doc
    }

    /// The `status.cluster.retry` object: budget capacity and what is
    /// left of it right now.
    pub(crate) fn retry_json(&self, metrics: &Metrics) -> Json {
        let available = {
            let budget = self.budget.lock().expect("retry budget lock");
            budget.tokens.floor().max(0.0) as u64
        };
        Json::object()
            .with("budget", u64::from(self.budget_capacity))
            .with("available", available)
            .with("spent", metrics.retries_spent.load(Ordering::Relaxed))
            .with("denied", metrics.retries_denied.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(faults: Option<FaultPlan>) -> PeerTable {
        PeerTable::new(Duration::from_millis(200), Duration::from_millis(100), 2, faults)
    }

    /// An address nothing listens on: reserved port 0 never accepts.
    const DEAD: &str = "127.0.0.1:1";

    #[test]
    fn breaker_trips_after_consecutive_failures_and_fast_fails() {
        let metrics = Metrics::default();
        let peers = table(None);
        for _ in 0..TRIP_THRESHOLD {
            let err = peers.call(DEAD, PeerOp::Forward, &metrics, false, |_| Ok(())).unwrap_err();
            assert!(!err.is_retryable());
        }
        assert_eq!(metrics.breaker_trips.load(Ordering::Relaxed), 1);
        let err = peers.call(DEAD, PeerOp::Forward, &metrics, false, |_| Ok(())).unwrap_err();
        assert!(err.as_io().to_string().contains("breaker open"), "{err}");
        assert_eq!(metrics.breaker_fast_fails.load(Ordering::Relaxed), 1);
        // After the cooldown the next call probes (and fails again,
        // re-tripping).
        std::thread::sleep(Duration::from_millis(120));
        let _ = peers.call(DEAD, PeerOp::Forward, &metrics, false, |_| Ok(()));
        assert_eq!(metrics.peer_probes.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.breaker_trips.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn retry_budget_is_spent_then_denied() {
        let metrics = Metrics::default();
        let peers = table(None);
        // One budgeted end-to-end retry against a dead peer spends a
        // token...
        let _ = peers.call(DEAD, PeerOp::Forward, &metrics, true, |_| Ok(()));
        assert_eq!(metrics.retries_spent.load(Ordering::Relaxed), 1);
        // ...then drain the bucket directly: capacity 2 leaves one
        // token, and the request after it is denied.
        assert!(peers.take_token(&metrics));
        assert!(!peers.take_token(&metrics), "bucket empty until the lazy refill");
        assert_eq!(metrics.retries_denied.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fault_deny_is_deterministic_and_counted() {
        let metrics = Metrics::default();
        let plan = FaultPlan::parse("seed=7;deny:*:count=2").unwrap();
        let peers = table(Some(plan.clone()));
        for _ in 0..2 {
            let err = peers.call(DEAD, PeerOp::Forward, &metrics, false, |_| Ok(())).unwrap_err();
            assert!(err.as_io().to_string().contains("fault injection"), "{err}");
        }
        assert_eq!(plan.fired(), 2);
        // The window is spent; the next call reaches the (dead) peer
        // and fails with a real dial error instead.
        let err = peers.call(DEAD, PeerOp::Forward, &metrics, false, |_| Ok(())).unwrap_err();
        assert!(!err.as_io().to_string().contains("fault injection"), "{err}");
    }

    #[test]
    fn backoff_is_bounded_and_seeded() {
        let peers = table(Some(FaultPlan::parse("seed=9;delay:127.0.0.1:9:ms=1,count=1").unwrap()));
        let replica =
            table(Some(FaultPlan::parse("seed=9;delay:127.0.0.1:9:ms=1,count=1").unwrap()));
        for attempt in 1..=2 {
            let (a, b) = (peers.backoff(attempt), replica.backoff(attempt));
            assert_eq!(a, b, "same seed, same jitter stream");
            let base = BACKOFF_BASE_MS * 2u64.pow(attempt - 1);
            assert!(
                a.as_millis() as u64 >= base && (a.as_millis() as u64) < base + BACKOFF_BASE_MS
            );
        }
    }
}
