//! Daemon counters: per-op totals, queue depth, rejections, errors.
//!
//! Everything is a relaxed atomic — the counters feed the `status` op
//! and tests, not synchronization.

use crate::{Op, Request};
use gpa_json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// The daemon's live counters.
#[derive(Default)]
pub struct Metrics {
    /// Requests received per op, indexed by [`Op`] discriminant.
    pub ops: [AtomicU64; Op::ALL.len()],
    /// Lines that failed to parse as a request.
    pub protocol_errors: AtomicU64,
    /// Accepted requests whose analysis failed.
    pub analysis_errors: AtomicU64,
    /// Requests rejected because the queue was full (backpressure).
    pub rejected: AtomicU64,
    /// Requests currently waiting in the queue.
    pub queue_depth: AtomicU64,
    /// High-water mark of [`Metrics::queue_depth`].
    pub queue_peak: AtomicU64,
    /// Requests forwarded to their owning shard.
    pub forwards_out: AtomicU64,
    /// Forwarded requests received from a peer shard.
    pub forwards_in: AtomicU64,
    /// Forwards that failed and fell back to local computation.
    pub forward_failures: AtomicU64,
    /// Computed bodies replicated out to their key's replica holder.
    pub replicated_out: AtomicU64,
    /// Replicas accepted from a peer (`store_put` admitted).
    pub replicated_in: AtomicU64,
    /// Replications dropped because the replicator queue was full.
    pub replication_dropped: AtomicU64,
    /// Owned misses answered by warming the key from its replica holder.
    pub peer_warm_hits: AtomicU64,
    /// Forwarded frames rejected because the sender's epoch was stale.
    pub stale_epoch_rejected: AtomicU64,
    /// Roster refreshes adopted from a peer (anti-entropy catches).
    pub ring_refreshes: AtomicU64,
    /// Replications currently queued behind the replicator (gauge).
    pub replication_queued: AtomicU64,
    /// Budgeted peer retries actually spent.
    pub retries_spent: AtomicU64,
    /// Peer retries denied because the token bucket was empty.
    pub retries_denied: AtomicU64,
    /// Free retries after a stale pooled connection failed on reuse.
    pub stale_retries: AtomicU64,
    /// Peer circuit breakers tripped open.
    pub breaker_trips: AtomicU64,
    /// Peer calls failed fast because the breaker was open.
    pub breaker_fast_fails: AtomicU64,
    /// Half-open probes let through a cooled-down breaker.
    pub peer_probes: AtomicU64,
    /// Liveness heartbeats sent to healthy roster members on the chore
    /// tick — a dead peer fails these and trips its breaker before the
    /// first user call would have to.
    pub heartbeats: AtomicU64,
    /// The most recent replication error, for
    /// `status.cluster.replication.last_error`.
    pub last_replication_error: std::sync::Mutex<Option<String>>,
}

impl Metrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Counts one received request by op.
    pub fn count_op(&self, request: &Request) {
        self.ops[request.op() as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one dropped replication, remembering
    /// the failure for `status` and warning on the daemon's stderr the
    /// first time — an operator watching logs learns replicas are
    /// degrading before a shard dies and the misses show up.
    pub fn note_replication_drop(&self, detail: &str) {
        if self.replication_dropped.fetch_add(1, Ordering::Relaxed) == 0 {
            eprintln!(
                "gpa-serve: warning: replication dropped ({detail}); \
                 further drops are counted in status.cluster.replication"
            );
        }
        *self.last_replication_error.lock().expect("replication error lock") =
            Some(detail.to_string());
    }

    /// Records a queue push and keeps the high-water mark current.
    pub fn note_enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records a queue pop.
    pub fn note_dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// The per-op counter object used inside `status` responses.
    pub fn ops_json(&self) -> Json {
        Op::ALL.iter().fold(Json::object(), |doc, &op| {
            doc.with(op.name(), self.ops[op as usize].load(Ordering::Relaxed))
        })
    }

    /// The cluster counter object used inside `status` responses.
    pub fn cluster_json(&self) -> Json {
        Json::object()
            .with("forwards_out", self.forwards_out.load(Ordering::Relaxed))
            .with("forwards_in", self.forwards_in.load(Ordering::Relaxed))
            .with("forward_failures", self.forward_failures.load(Ordering::Relaxed))
            .with("replicated_out", self.replicated_out.load(Ordering::Relaxed))
            .with("replicated_in", self.replicated_in.load(Ordering::Relaxed))
            .with("replication_dropped", self.replication_dropped.load(Ordering::Relaxed))
            .with("peer_warm_hits", self.peer_warm_hits.load(Ordering::Relaxed))
    }
}

/// One reactor thread's counters: the only place connection-level
/// events are counted. Each is one entry of the `status.reactors`
/// array; `status.connections` and the `status.reactor` roll-up are
/// sums over them taken at `status` time, and `pending_bytes` doubles
/// as the gauge the reactor's *own* byte-budget share is enforced
/// against.
#[derive(Default)]
pub struct ReactorStats {
    /// Connections this reactor accepted (or was handed) over the
    /// daemon's lifetime.
    pub accepted: AtomicU64,
    /// Connections currently owned by this reactor.
    pub open_connections: AtomicU64,
    /// Response bytes buffered on this reactor's connections but not
    /// yet written.
    pub pending_bytes: AtomicU64,
    /// Jobs shed because this reactor's byte-budget share was spent.
    pub byte_sheds: AtomicU64,
    /// Idle connections reaped by this reactor's deadline sweep.
    pub idle_reaped: AtomicU64,
    /// Connection buffers served from this reactor's recycle pool
    /// instead of a fresh allocation.
    pub buffer_reuses: AtomicU64,
}

impl ReactorStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        ReactorStats::default()
    }

    /// One entry of the `status.reactors` array; `byte_budget` is the
    /// reactor's share of the daemon's pending-byte budget.
    pub fn json(&self, byte_budget: u64) -> Json {
        Json::object()
            .with("accepted", self.accepted.load(Ordering::Relaxed))
            .with("open_connections", self.open_connections.load(Ordering::Relaxed))
            .with("pending_bytes", self.pending_bytes.load(Ordering::Relaxed))
            .with("byte_budget", byte_budget)
            .with("byte_sheds", self.byte_sheds.load(Ordering::Relaxed))
            .with("idle_reaped", self.idle_reaped.load(Ordering::Relaxed))
            .with("buffer_reuses", self.buffer_reuses.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_counted_by_kind() {
        let m = Metrics::new();
        m.count_op(&Request::Status);
        m.count_op(&Request::Status);
        m.count_op(&Request::Sleep { ms: 1 });
        assert_eq!(m.ops[Op::Status as usize].load(Ordering::Relaxed), 2);
        assert_eq!(m.ops[Op::Sleep as usize].load(Ordering::Relaxed), 1);
        assert_eq!(m.ops[Op::Analyze as usize].load(Ordering::Relaxed), 0);
        // `status.ops` lists exactly the name table, in its order.
        let ops = m.ops_json();
        let keys: Vec<&str> = ops.entries().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, Op::ALL.map(Op::name));
        assert_eq!(ops.field("status").unwrap().as_u64().unwrap(), 2);
    }

    #[test]
    fn queue_peak_tracks_the_high_water_mark() {
        let m = Metrics::new();
        m.note_enqueued();
        m.note_enqueued();
        m.note_dequeued();
        m.note_enqueued();
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 2);
        assert_eq!(m.queue_peak.load(Ordering::Relaxed), 2);
    }
}
