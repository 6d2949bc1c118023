//! Cluster membership: the epoch-versioned roster and the ring derived
//! from it, the membership ops (`join` / `leave` / `ring_status`), the
//! stale-epoch gate, the replicator, and the background chore thread
//! (refreshes, breaker probes, heartbeats).
//!
//! A body moves between shards in two ways only: the owner pushes each
//! body it computes to the key's [replica holder](Ring::replica), and
//! an owned miss pulls from that holder before computing. Placement by
//! key makes those two enough through a kill, leave, restart or join.

use crate::client::ClientError;
use crate::faults::PeerOp;
use crate::metrics::Metrics;
use crate::peer::PeerTable;
use crate::protocol::{self, members_json, PeerMeta, Request};
use crate::ring::{Ring, Roster};
use crate::server::{ServerConfig, Shared};
use gpa_json::Json;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Bounded queue between [`replicate`] and the replicator thread; when
/// full, replications drop (and are counted) rather than stall an
/// analysis worker.
const REPLICATION_QUEUE: usize = 256;

/// Connect/read/write timeout for shard-to-shard traffic — shorter than
/// the client default so a dead peer costs one bounded stall, after
/// which the request falls back to local computation.
const PEER_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Bounded queue of roster refreshes (the peer to pull from); when
/// full, a refresh is dropped — the periodic heartbeat will get there
/// eventually.
const REFRESH_QUEUE: usize = 32;

/// How often the cluster chore thread wakes with no work queued, to
/// probe tripped peers (half-open breaker checks double as roster
/// anti-entropy).
const CLUSTER_TICK: Duration = Duration::from_millis(250);

/// How often the chore thread heartbeats *healthy* roster members (a
/// `ring_status` exchange, so liveness checks double as anti-entropy).
/// A dead peer fails [`TRIP_THRESHOLD`](crate::peer) consecutive
/// heartbeats and trips its breaker in a few seconds — before the
/// first user call has to eat the failure.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(1000);

/// The roster and everything derived from it, swapped atomically under
/// one lock so no reader ever sees an epoch paired with another
/// epoch's ring.
pub(crate) struct ClusterState {
    pub(crate) roster: Roster,
    pub(crate) ring: Ring,
}

/// Shard-cluster state: the live roster/ring, this daemon's identity
/// on it, and the hardened peer path.
pub(crate) struct Cluster {
    pub(crate) self_addr: String,
    pub(crate) state: RwLock<ClusterState>,
    /// Pooled + breaker-guarded + budgeted peer connections.
    pub(crate) peers: PeerTable,
    /// Sender side of the replication queue; `None` once shutdown has
    /// begun (dropping it lets the replicator thread exit).
    pub(crate) repl_tx: Mutex<Option<mpsc::SyncSender<(String, String)>>>,
    /// Sender side of the refresh queue (peers to pull the roster
    /// from); `None` once shutdown has begun.
    pub(crate) refresh_tx: Mutex<Option<mpsc::SyncSender<String>>>,
    /// Set for good by a self-`leave`: the daemon keeps serving (and
    /// forwarding) but is no longer a ring member and re-joins nothing.
    pub(crate) draining: AtomicBool,
}

/// The receiving ends [`Cluster::new`] hands to the replicator and
/// chore threads.
pub(crate) type ClusterQueues = (mpsc::Receiver<(String, String)>, mpsc::Receiver<String>);

impl Cluster {
    /// Builds this daemon's cluster state from its config: validates
    /// the identity it will carry on the ring, resolves the fault plan,
    /// and seeds the roster with `peers ∪ {self}`.
    pub(crate) fn new(
        config: &ServerConfig,
        self_addr: String,
    ) -> io::Result<(Cluster, ClusterQueues)> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        if config.peers.contains(&self_addr) {
            return Err(invalid(format!(
                "--advertise {self_addr} duplicates a peer address; a shard cannot be its own peer"
            )));
        }
        if config.join.as_deref() == Some(self_addr.as_str()) {
            return Err(invalid(format!(
                "--join {self_addr} points at this daemon; join an existing member"
            )));
        }
        let roster = Roster::new(config.peers.iter().cloned().chain([self_addr.clone()]));
        let state = ClusterState { ring: roster.ring(), roster };
        let (repl_tx, repl_rx) = mpsc::sync_channel(REPLICATION_QUEUE);
        let (refresh_tx, refresh_rx) = mpsc::sync_channel(REFRESH_QUEUE);
        let cluster = Cluster {
            self_addr,
            state: RwLock::new(state),
            peers: PeerTable::new(
                PEER_IO_TIMEOUT,
                config.peer_trip_cooldown,
                config.peer_retry_budget,
                config.faults.clone(),
            ),
            repl_tx: Mutex::new(Some(repl_tx)),
            refresh_tx: Mutex::new(Some(refresh_tx)),
            draining: AtomicBool::new(false),
        };
        Ok((cluster, (repl_rx, refresh_rx)))
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.state.read().expect("cluster state").roster.epoch()
    }

    fn members(&self) -> Vec<String> {
        self.state.read().expect("cluster state").roster.members().to_vec()
    }

    /// The roster as one consistent `(epoch, members)` pair.
    pub(crate) fn snapshot(&self) -> (u64, Vec<String>) {
        let state = self.state.read().expect("cluster state");
        (state.roster.epoch(), state.roster.members().to_vec())
    }

    /// The member holding `key`'s replica on the current ring; `None`
    /// on a ring of fewer than two members, or when it is this shard.
    pub(crate) fn replica(&self, key: &str) -> Option<String> {
        let state = self.state.read().expect("cluster state");
        state.ring.replica(key).filter(|holder| *holder != self.self_addr).map(str::to_string)
    }

    /// Whether the current ring maps `key` to this shard.
    pub(crate) fn owns(&self, key: &str) -> bool {
        let state = self.state.read().expect("cluster state");
        !state.ring.is_empty() && state.ring.owner(key) == self.self_addr
    }

    /// The anti-entropy stamp this shard puts on peer frames.
    pub(crate) fn meta(&self) -> PeerMeta {
        PeerMeta { epoch: Some(self.epoch()), from: Some(self.self_addr.clone()) }
    }

    /// Applies a roster mutation; on change, rebuilds the derived ring
    /// under the same lock. Returns whether anything changed.
    fn mutate(&self, f: impl FnOnce(&mut Roster) -> bool) -> bool {
        let mut state = self.state.write().expect("cluster state");
        let changed = f(&mut state.roster);
        if changed {
            state.ring = state.roster.ring();
        }
        changed
    }

    /// Adopts a peer's roster snapshot (newer epochs win), then puts
    /// this shard back on the roster if the snapshot dropped it — a
    /// member that is not draining never gossips itself out of the
    /// ring.
    pub(crate) fn adopt(&self, epoch: u64, members: &[String]) -> bool {
        let draining = self.draining.load(Ordering::Acquire);
        self.mutate(|roster| {
            let mut changed = roster.adopt(epoch, members);
            if !draining && !roster.contains(&self.self_addr) {
                changed |= roster.join(&self.self_addr);
            }
            changed
        })
    }

    /// Sends one `op`-class request line to `addr` over the hardened
    /// peer path and returns the reply line; `retry` lets a failed call
    /// spend a budget token.
    pub(crate) fn ask(
        &self,
        addr: &str,
        op: PeerOp,
        metrics: &Metrics,
        retry: bool,
        wire: &str,
    ) -> Result<String, ClientError> {
        self.peers.call(addr, op, metrics, retry, |client| {
            Ok(client.request_line(wire)?.trim_end().to_string())
        })
    }
}

/// Queues a body this shard just computed for the replicator. Only
/// owned keys replicate: a body computed here as a forwarding
/// *fallback* belongs to another shard.
pub(crate) fn replicate(shared: &Shared, key: &str, body: &str) {
    let Some(cluster) = &shared.cluster else { return };
    if !cluster.owns(key) {
        return;
    }
    let Some(tx) = cluster.repl_tx.lock().expect("repl tx").clone() else { return };
    if tx.try_send((key.to_string(), body.to_string())).is_ok() {
        shared.metrics.replication_queued.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.metrics.note_replication_drop("replication queue full");
    }
}

/// The roster inside a membership op's ok frame (`join`,
/// `ring_status`); `None` for anything else.
fn reply_roster(line: &str) -> Option<(u64, Vec<String>)> {
    let reply = Json::parse(line).ok()?;
    if !reply.get("ok")?.as_bool().ok()? {
        return None;
    }
    protocol::parse_roster(reply.get("result")?)
}

/// Announces this daemon to `seed` with a `join` op and adopts the
/// roster the seed answers with.
pub(crate) fn join_cluster(shared: &Shared, seed: &str) -> io::Result<()> {
    let cluster = shared.cluster.as_ref().expect("join implies cluster mode");
    let wire = Request::Join { addr: cluster.self_addr.clone(), meta: cluster.meta() }.to_wire();
    let line =
        cluster.ask(seed, PeerOp::Membership, &shared.metrics, true, &wire).map_err(|e| {
            io::Error::new(io::ErrorKind::ConnectionRefused, format!("join via {seed}: {e}"))
        })?;
    let (epoch, members) = reply_roster(&line).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, format!("join via {seed}: no roster in {line}"))
    })?;
    if cluster.adopt(epoch, &members) {
        shared.metrics.ring_refreshes.fetch_add(1, Ordering::Relaxed);
    } else {
        // The adoption tie-break refused an equal-epoch snapshot; merge
        // member-by-member instead so the rings still converge.
        cluster.mutate(|roster| {
            // Every member must be joined — `any` would short-circuit.
            let mut changed = false;
            for member in &members {
                changed |= roster.join(member);
            }
            changed
        });
    }
    Ok(())
}

/// Reacts to the anti-entropy stamp on a peer frame: a sender that is
/// *ahead* of this roster knows members we do not, so queue a refresh
/// from it (best-effort: a full queue drops it, and the heartbeat
/// catches up). Behind-sender handling is op-specific; see
/// [`check_peer_epoch`].
pub(crate) fn apply_peer_meta(shared: &Shared, meta: &PeerMeta) {
    let Some(cluster) = &shared.cluster else { return };
    let (Some(sender_epoch), Some(from)) = (meta.epoch, &meta.from) else { return };
    if sender_epoch > cluster.epoch() && *from != cluster.self_addr {
        if let Some(tx) = cluster.refresh_tx.lock().expect("refresh tx").as_ref() {
            let _ = tx.try_send(from.clone());
        }
    }
}

/// The stale-epoch gate for forwarded analyze frames: `Some(frame)`
/// when the sender's roster is behind ours and the request must bounce
/// instead of being answered by a non-owner.
pub(crate) fn check_peer_epoch(shared: &Shared, meta: &PeerMeta) -> Option<String> {
    let cluster = shared.cluster.as_ref()?;
    let sender_epoch = meta.epoch?;
    let (local_epoch, members) = cluster.snapshot();
    if sender_epoch < local_epoch {
        shared.metrics.stale_epoch_rejected.fetch_add(1, Ordering::Relaxed);
        return Some(protocol::stale_epoch_frame(local_epoch, &members));
    }
    apply_peer_meta(shared, meta);
    None
}

/// The `ring_status` reply: this shard's roster view.
pub(crate) fn ring_status(shared: &Shared) -> String {
    let Some(cluster) = &shared.cluster else {
        return protocol::error_frame("this daemon is not in cluster mode");
    };
    let state = cluster.state.read().expect("cluster state");
    let body = Json::object()
        .with("epoch", state.roster.epoch())
        .with("self", cluster.self_addr.clone())
        .with("members", members_json(state.roster.members()))
        .with("draining", cluster.draining.load(Ordering::Relaxed));
    protocol::ok_frame(false, &body.compact())
}

/// The `join` op: adds `addr` to the roster (bumping the epoch) and
/// answers with the post-join roster so the joiner can adopt it.
pub(crate) fn peer_join(shared: &Shared, addr: &str, meta: &PeerMeta) -> String {
    let Some(cluster) = &shared.cluster else {
        return protocol::error_frame("this daemon is not in cluster mode");
    };
    if !addr.contains(':') {
        return protocol::error_frame("`addr` must be a host:port address");
    }
    apply_peer_meta(shared, meta);
    roster_edit_reply(cluster, "added", cluster.mutate(|roster| roster.join(addr)))
}

/// Answers a roster edit: whether it changed anything (under `verb`)
/// and the post-edit roster for the caller to adopt.
fn roster_edit_reply(cluster: &Cluster, verb: &str, changed: bool) -> String {
    let (epoch, members) = cluster.snapshot();
    let body = Json::object()
        .with(verb, changed)
        .with("epoch", epoch)
        .with("members", members_json(&members));
    protocol::ok_frame(false, &body.compact())
}

/// The roster-edit half of `leave`: removing a member that is not this
/// shard is answered inline; `None` means the target is this shard
/// itself (an explicit address or none at all), which drains on a
/// worker thread instead.
pub(crate) fn leave_inline(shared: &Shared, addr: Option<&str>, meta: &PeerMeta) -> Option<String> {
    let Some(cluster) = &shared.cluster else {
        return Some(protocol::error_frame("this daemon is not in cluster mode"));
    };
    let target = addr?;
    if target == cluster.self_addr {
        return None;
    }
    apply_peer_meta(shared, meta);
    Some(roster_edit_reply(cluster, "removed", cluster.mutate(|roster| roster.leave(target))))
}

/// Takes this shard out of the ring: leave the roster, then announce
/// the departure to the remaining members. Nothing is shipped: each key
/// this shard owned passes to the key's replica holder, which already
/// has the body. The daemon keeps serving afterwards — local store,
/// forwarding to the survivors — it just owns nothing.
pub(crate) fn drain_self(shared: &Shared) -> String {
    let Some(cluster) = &shared.cluster else {
        return protocol::error_frame("this daemon is not in cluster mode");
    };
    if cluster.draining.swap(true, Ordering::AcqRel) {
        return protocol::error_frame("this shard is already draining");
    }
    cluster.mutate(|roster| roster.leave(&cluster.self_addr));
    let (epoch, members) = cluster.snapshot();
    // Best-effort departure announce; a member that misses it learns
    // from the next stale-epoch bounce or refresh.
    let announce =
        Request::Leave { addr: Some(cluster.self_addr.clone()), meta: cluster.meta() }.to_wire();
    for member in &members {
        let _ = cluster.ask(member, PeerOp::Membership, &shared.metrics, false, &announce);
    }
    protocol::ok_frame(false, &Json::object().with("left", true).with("epoch", epoch).compact())
}

/// Ships queued `(key, body)` replications to the key's replica holder
/// (re-read per item: membership may have changed since the enqueue).
/// Runs on its own thread so a slow or dead holder never stalls an
/// analysis worker; exits when the sender side is dropped (shutdown).
pub(crate) fn replicator_loop(shared: &Shared, rx: &mpsc::Receiver<(String, String)>) {
    while let Ok((key, body)) = rx.recv() {
        shared.metrics.replication_queued.fetch_sub(1, Ordering::Relaxed);
        let Some(cluster) = &shared.cluster else { break };
        // No holder (solo ring, or drained off it): nothing to
        // replicate to — not a drop.
        let Some(holder) = cluster.replica(&key) else { continue };
        let wire = Request::StorePut { key, body, meta: cluster.meta() }.to_wire();
        match cluster.ask(&holder, PeerOp::Store, &shared.metrics, false, &wire) {
            Ok(_) => {
                shared.metrics.replicated_out.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                shared.metrics.note_replication_drop(&format!("to {holder}: {e}"));
            }
        }
    }
}

/// The cluster chore thread: runs roster refreshes off the request
/// path; on idle ticks probes tripped peers (the probe doubles as
/// roster anti-entropy) and, every [`HEARTBEAT_INTERVAL`], heartbeats
/// the healthy members so a dead peer is discovered — and its breaker
/// tripped — before the first user call. Exits when the refresh sender
/// is dropped (shutdown).
pub(crate) fn cluster_loop(shared: &Shared, rx: &mpsc::Receiver<String>) {
    let mut last_heartbeat = Instant::now();
    loop {
        if shared.shutting_down.load(Ordering::Acquire) {
            break;
        }
        match rx.recv_timeout(CLUSTER_TICK) {
            Ok(addr) => refresh_from(shared, &addr, PeerOp::Membership),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                probe_tripped_peers(shared);
                if last_heartbeat.elapsed() >= HEARTBEAT_INTERVAL {
                    last_heartbeat = Instant::now();
                    heartbeat_members(shared);
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// One liveness pass over the roster: a cheap `ring_status` exchange
/// with every healthy member. Failures are recorded by the peer table
/// exactly like user-call failures, so three missed heartbeats trip the
/// member's breaker and user requests fail fast to local computation
/// instead of eating a connect timeout. Tripped members are skipped —
/// [`probe_tripped_peers`] owns them until the cooldown probe succeeds.
fn heartbeat_members(shared: &Shared) {
    let Some(cluster) = &shared.cluster else { return };
    for addr in cluster.members() {
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        if addr == cluster.self_addr || cluster.peers.is_tripped(&addr) {
            continue;
        }
        shared.metrics.heartbeats.fetch_add(1, Ordering::Relaxed);
        refresh_from(shared, &addr, PeerOp::Heartbeat);
    }
}

/// Pulls `ring_status` from `addr` and adopts anything newer than the
/// local roster; `op` says on whose behalf (a liveness probe or a
/// roster refresh).
fn refresh_from(shared: &Shared, addr: &str, op: PeerOp) {
    let Some(cluster) = &shared.cluster else { return };
    if addr == cluster.self_addr {
        return;
    }
    let wire = Request::RingStatus.to_wire();
    let Ok(line) = cluster.ask(addr, op, &shared.metrics, false, &wire) else { return };
    let Some((epoch, members)) = reply_roster(&line) else { return };
    if cluster.adopt(epoch, &members) {
        shared.metrics.ring_refreshes.fetch_add(1, Ordering::Relaxed);
    }
}

/// Sends one `ring_status` probe to every peer whose breaker cooldown
/// has elapsed: the success closes the breaker, and the answered
/// roster catches this shard up on anything it missed while the peer
/// was unreachable.
fn probe_tripped_peers(shared: &Shared) {
    let Some(cluster) = &shared.cluster else { return };
    for addr in cluster.peers.ready_to_probe() {
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        refresh_from(shared, &addr, PeerOp::Heartbeat);
    }
}
