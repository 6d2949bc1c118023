//! The `status` op's body: every counter and gauge the daemon exposes,
//! in the shape `docs/protocol.md` documents.

use crate::metrics::ReactorStats;
use crate::protocol::{self, members_json};
use crate::server::Shared;
use gpa_json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Builds the `status` result. The connection-level roll-ups
/// (`connections`, the `reactor` object) are sums over the per-reactor
/// counters, taken here — nothing on the request path maintains a
/// daemon-wide copy.
pub(crate) fn status_body(shared: &Shared) -> Json {
    let m = &shared.metrics;
    let st = shared.store.stats();
    let sum = |gauge: fn(&ReactorStats) -> &AtomicU64| -> u64 {
        shared.reactors.iter().map(|r| gauge(&r.stats).load(Ordering::Relaxed)).sum()
    };
    let mut body = Json::object()
        .with("uptime_ms", shared.started.elapsed().as_millis() as u64)
        .with("workers", shared.workers)
        .with(
            "schemas",
            Json::Arr(
                protocol::SCHEMA_VERSIONS.iter().map(|&v| Json::from(u64::from(v))).collect(),
            ),
        )
        .with("connections", sum(|s| &s.accepted))
        .with("ops", m.ops_json())
        .with(
            "reactor",
            Json::object()
                .with("open_connections", sum(|s| &s.open_connections))
                .with("pending_jobs", m.queue_depth.load(Ordering::Relaxed))
                .with("pending_bytes", sum(|s| &s.pending_bytes))
                .with("byte_sheds", sum(|s| &s.byte_sheds))
                .with("idle_reaped", sum(|s| &s.idle_reaped))
                .with("count", shared.reactors.len())
                .with("accept", shared.accept.name()),
        )
        .with(
            "reactors",
            Json::Arr(shared.reactors.iter().map(|r| r.stats.json(r.byte_budget)).collect()),
        )
        .with(
            "queue",
            Json::object()
                .with("depth", m.queue_depth.load(Ordering::Relaxed))
                .with("peak", m.queue_peak.load(Ordering::Relaxed))
                .with("capacity", shared.queue_capacity)
                .with("rejected", m.rejected.load(Ordering::Relaxed)),
        )
        .with(
            "store",
            Json::object()
                .with("entries", st.entries)
                .with("capacity", st.capacity)
                .with("hits", st.hits)
                .with("disk_hits", st.disk_hits)
                .with("misses", st.misses)
                .with("evictions", st.evictions)
                .with("persist_errors", st.persist_errors)
                .with("persisted", shared.persisted),
        )
        .with(
            "errors",
            Json::object()
                .with("protocol", m.protocol_errors.load(Ordering::Relaxed))
                .with("analysis", m.analysis_errors.load(Ordering::Relaxed)),
        );
    if let Some(cluster) = &shared.cluster {
        let (epoch, members) = cluster.snapshot();
        let last_error =
            shared.metrics.last_replication_error.lock().expect("replication error lock").clone();
        body = body.with(
            "cluster",
            m.cluster_json()
                .with("self", cluster.self_addr.clone())
                .with("epoch", epoch)
                .with("draining", cluster.draining.load(Ordering::Relaxed))
                .with("members", members_json(&members))
                .with(
                    "membership",
                    Json::object()
                        .with("stale_rejected", m.stale_epoch_rejected.load(Ordering::Relaxed))
                        .with("refreshes", m.ring_refreshes.load(Ordering::Relaxed))
                        .with("heartbeats", m.heartbeats.load(Ordering::Relaxed)),
                )
                .with(
                    "replication",
                    Json::object()
                        .with("queued", m.replication_queued.load(Ordering::Relaxed))
                        .with("last_error", last_error.map_or(Json::Null, Json::Str)),
                )
                .with(
                    "breaker",
                    Json::object()
                        .with("trips", m.breaker_trips.load(Ordering::Relaxed))
                        .with("fast_fails", m.breaker_fast_fails.load(Ordering::Relaxed))
                        .with("probes", m.peer_probes.load(Ordering::Relaxed))
                        .with("stale_retries", m.stale_retries.load(Ordering::Relaxed)),
                )
                .with("peers", cluster.peers.status_json()),
        );
    }
    body
}
