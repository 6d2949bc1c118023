//! From a request line to a response frame: inline answers, the
//! bounded job queue and its admission rules, the worker pool, and —
//! in cluster mode — routing a job to its owning shard (forward,
//! stale-epoch re-route, local fallback, warm-from-successor).

use crate::cluster::{self, ClusterTask};
use crate::faults::PeerOp;
use crate::protocol::{self, Request};
use crate::server::Shared;
use crate::status::status_body;
use crate::uploads::{self, UploadTicket, Uploads};
use gpa_json::Json;
use std::io;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// A forward that comes back `stale_epoch` re-routes on the adopted
/// roster; this bounds how many times one request will chase the ring
/// before computing locally (each hop means *we* were behind, which a
/// healthy cluster resolves in one adoption).
const MAX_FORWARD_HOPS: u32 = 3;

/// Where a worker's finished frame goes: onto the owning reactor's
/// completion list, for the connection with this token.
#[derive(Clone, Copy)]
pub(crate) struct ReplyTo {
    /// The reactor that owns the connection.
    pub(crate) reactor: usize,
    /// The connection's token within that reactor.
    pub(crate) token: u64,
}

/// One queued analysis request and where its frame goes back.
pub(crate) struct Work {
    request: Request,
    reply: ReplyTo,
}

/// Whether the connection keeps reading after a response.
pub(crate) enum Control {
    Continue,
    Shutdown,
}

/// A request that needs a worker, plus its upload ticket if it was
/// synthesized by `profile_end`.
pub(crate) struct Pending {
    pub(crate) request: Request,
    pub(crate) ticket: Option<UploadTicket>,
}

/// What [`handle_line`] decided: answer now, or hand to the worker
/// pool and park the connection until the frame comes back. The
/// variants differ in size by the whole `Request`, but the value lives
/// on the stack for one call only — boxing it would buy nothing but an
/// allocation per dispatched job.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Handled {
    Reply(String, Control),
    Dispatch(Pending),
}

/// An inline answer after which the connection keeps reading.
fn reply(frame: String) -> Handled {
    Handled::Reply(frame, Control::Continue)
}

/// Parses one request line and answers it inline when it can: control
/// ops, upload bookkeeping, peer store and membership ops, and store
/// hits. Everything else needs a worker.
pub(crate) fn handle_line(shared: &Shared, state: &mut Uploads, line: &str) -> Handled {
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(msg) => {
            shared.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return reply(protocol::error_frame(&msg));
        }
    };
    shared.metrics.count_op(&request);
    let request = match request {
        Request::Status => return reply(protocol::ok_frame(false, &status_body(shared).compact())),
        Request::Shutdown => {
            return Handled::Reply(
                protocol::ok_frame(false, "{\"shutting_down\":true}"),
                Control::Shutdown,
            )
        }
        // Upload bookkeeping is answered inline; only the finalized
        // merge consumes a worker slot, as a synthesized
        // `analyze_profile` request.
        Request::ProfileBegin { job, options } => {
            return reply(uploads::upload_begin(shared, state, job, options))
        }
        Request::ProfileChunk { upload_id, profile } => {
            return reply(uploads::upload_chunk(shared, state, upload_id, profile))
        }
        Request::ProfileAbort { upload_id } => {
            return reply(uploads::upload_abort(shared, state, upload_id))
        }
        Request::ProfileEnd { upload_id } => return uploads::upload_end(shared, state, upload_id),
        // Peer store ops touch only the *local* store tiers — no
        // forwarding, no computation — so they are answered inline.
        Request::StoreGet { key } => {
            let body = match shared.store.get(&key) {
                // Bodies are compact JSON; splice verbatim so the
                // replica a peer admits equals the owner's bytes.
                Some(body) => format!("{{\"found\":true,\"body\":{body}}}"),
                None => "{\"found\":false}".to_string(),
            };
            return reply(protocol::ok_frame(false, &body));
        }
        Request::StorePut { key, body, meta } => {
            shared.store.insert_replica(&key, &body);
            shared.metrics.replicated_in.fetch_add(1, Ordering::Relaxed);
            cluster::apply_peer_meta(shared, &meta);
            return reply(protocol::ok_frame(false, "{\"stored\":true}"));
        }
        // Membership ops mutate only the roster (cheap, lock-bounded);
        // the handoff they may imply runs on the chore thread.
        Request::RingStatus => return reply(cluster::ring_status(shared)),
        Request::Join { addr, meta } => return reply(cluster::peer_join(shared, &addr, &meta)),
        Request::Leave { addr, meta } => {
            // Removing *another* member is a roster edit; draining
            // *this* shard ships the whole store and takes a worker.
            return match cluster::leave_inline(shared, addr.as_deref(), &meta) {
                Some(frame) => reply(frame),
                None => Handled::Dispatch(Pending {
                    request: Request::Leave { addr, meta },
                    ticket: None,
                }),
            };
        }
        other => other,
    };
    if let Request::Analyze { options, .. } | Request::AnalyzeProfile { options, .. } = &request {
        if options.forwarded {
            shared.metrics.forwards_in.fetch_add(1, Ordering::Relaxed);
            // A forwarded frame from a shard whose roster is behind
            // ours would be answered by the *wrong* owner; bounce it
            // with the current roster instead so the sender catches up
            // and re-routes.
            if let Some(stale) = cluster::check_peer_epoch(shared, &options.meta) {
                return reply(stale);
            }
        }
    }
    if let Some(key) = request.cache_key() {
        if let Some(body) = shared.store.get(&key) {
            return reply(protocol::ok_frame(true, &body));
        }
    }
    Handled::Dispatch(Pending { request, ticket: None })
}

/// Admits a request to the worker queue, or rejects it (shutdown, byte
/// budget, queue capacity) handing the request back with the error
/// frame to send. The rejection is boxed: `Request` is large and the
/// happy path should not pay for its stack space.
pub(crate) fn try_enqueue(
    shared: &Shared,
    request: Request,
    reply: ReplyTo,
) -> Result<(), Box<(Request, String)>> {
    // The byte gate is per reactor: each reactor's own backlog is
    // checked against its own share of the daemon budget, so one
    // reactor's slow-client pile-up cannot shed jobs arriving on the
    // others. With one reactor the share *is* the whole budget.
    let rs = &shared.reactors[reply.reactor];
    let (pending_bytes, budget) = (rs.stats.pending_bytes.load(Ordering::Relaxed), rs.byte_budget);
    if pending_bytes > budget {
        rs.stats.byte_sheds.fetch_add(1, Ordering::Relaxed);
        return Err(Box::new((
            request,
            protocol::error_frame(&format!(
                "response backlog over budget ({pending_bytes} pending bytes, budget {budget}); \
                 retry later"
            )),
        )));
    }
    let mut queue = shared.queue.lock().expect("queue lock");
    if shared.shutting_down.load(Ordering::Acquire) {
        return Err(Box::new((request, protocol::error_frame("server is shutting down"))));
    }
    if queue.len() >= shared.queue_capacity {
        drop(queue);
        shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        return Err(Box::new((
            request,
            protocol::error_frame(&format!(
                "request queue full ({} pending, capacity {}); retry later",
                shared.queue_capacity, shared.queue_capacity
            )),
        )));
    }
    queue.push_back(Work { request, reply });
    shared.metrics.note_enqueued();
    shared.available.notify_one();
    Ok(())
}

/// One pool worker: pops jobs until shutdown drains the queue, and
/// hands each finished frame to the reactor that owns its connection.
pub(crate) fn worker_loop(shared: &Shared) {
    loop {
        let work = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(work) = queue.pop_front() {
                    shared.metrics.note_dequeued();
                    break Some(work);
                }
                if shared.shutting_down.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared.available.wait(queue).expect("queue lock");
            }
        };
        let Some(work) = work else { break };
        let frame = execute(shared, work.request);
        // The connection may already be gone; that only means nobody
        // is waiting for this frame.
        let rs = &shared.reactors[work.reply.reactor];
        rs.completions.lock().expect("completions").push((work.reply.token, frame));
        rs.waker.wake();
    }
}

/// What one forwarding attempt came back with.
enum Forwarded {
    /// The owner's frame, to be relayed verbatim.
    Frame(String),
    /// The owner said our roster was behind; we adopted its snapshot
    /// and the request should re-route on the new ring.
    StaleEpoch,
}

/// Runs one dequeued request: forwarded to its owning shard in cluster
/// mode, computed locally otherwise (or as the fallback when the owner
/// is unreachable).
fn execute(shared: &Shared, request: Request) -> String {
    for _hop in 0..MAX_FORWARD_HOPS {
        let Some(owner) = route_away(shared, &request) else { break };
        match forward(shared, &owner, &request) {
            Ok(Forwarded::Frame(frame)) => return frame,
            // Our roster was behind; it has been refreshed from the
            // bounce, so re-route (the key may even be ours now).
            Ok(Forwarded::StaleEpoch) => continue,
            Err(_) => {
                shared.metrics.forward_failures.fetch_add(1, Ordering::Relaxed);
                // The owner is unreachable: answer locally. Check the
                // store once more first — the frame may have landed as a
                // replica while we waited on the dead peer.
                if let Some(key) = request.cache_key() {
                    if let Some(body) = shared.store.get(&key) {
                        return protocol::ok_frame(true, &body);
                    }
                }
                break;
            }
        }
    }
    execute_local(shared, request)
}

/// The shard `request` must be relayed to: `Some(owner)` only in
/// cluster mode, for cacheable requests not already forwarded, whose
/// content address hashes to another member.
fn route_away(shared: &Shared, request: &Request) -> Option<String> {
    let cluster = shared.cluster.as_ref()?;
    if request.is_forwarded() {
        return None;
    }
    let key = request.cache_key()?;
    let state = cluster.state.read().expect("cluster state");
    if state.ring.is_empty() {
        return None;
    }
    let owner = state.ring.owner(&key);
    (owner != cluster.self_addr).then(|| owner.to_string())
}

/// Relays `request` to its owner and returns the owner's response frame
/// **verbatim** — the `cached` flag and the body bytes are the owner's,
/// so forwarded responses stay byte-identical to direct ones. The
/// forwarded frame carries this shard's epoch; a `stale_epoch` bounce
/// adopts the owner's roster instead of returning a frame.
fn forward(shared: &Shared, owner: &str, request: &Request) -> Result<Forwarded, io::Error> {
    let cluster = shared.cluster.as_ref().expect("routed with a cluster");
    shared.metrics.forwards_out.fetch_add(1, Ordering::Relaxed);
    let mut forwarded = request.to_forwarded();
    if let Request::Analyze { options, .. } | Request::AnalyzeProfile { options, .. } =
        &mut forwarded
    {
        options.meta = cluster.meta();
    }
    let wire = forwarded.to_wire();
    let line = cluster
        .ask(owner, PeerOp::Forward, &shared.metrics, true, &wire)
        .map_err(crate::client::ClientError::into_io)?;
    if let Some((epoch, members)) = protocol::parse_stale_epoch(&line) {
        if cluster.adopt(epoch, &members) {
            shared.metrics.ring_refreshes.fetch_add(1, Ordering::Relaxed);
            cluster.schedule(ClusterTask::Handoff);
        }
        return Ok(Forwarded::StaleEpoch);
    }
    Ok(Forwarded::Frame(line))
}

/// Fetches an owned-but-missing key from the ring successor (which
/// holds this shard's replicas): how a restarted shard warms from its
/// neighbor instead of recomputing.
fn warm_from_successor(shared: &Shared, key: &str) -> Option<String> {
    let cluster = shared.cluster.as_ref()?;
    let successor = cluster.successor()?;
    if !cluster.owns(key) {
        return None;
    }
    let wire = Request::StoreGet { key: key.to_string() }.to_wire();
    let line = cluster.ask(&successor, PeerOp::Store, &shared.metrics, false, &wire).ok()?;
    let doc = Json::parse(&line).ok()?;
    if !doc.get("ok")?.as_bool().ok()? {
        return None;
    }
    let result = doc.get("result")?;
    if !result.get("found")?.as_bool().ok()? {
        return None;
    }
    // Compact re-rendering round-trips byte-identically (gpa-json's
    // proptests), so the warmed body equals the replica's bytes.
    let body = result.get("body")?.compact();
    shared.metrics.peer_warm_hits.fetch_add(1, Ordering::Relaxed);
    shared.store.insert_replica(key, &body);
    Some(body)
}

/// Computes one request on the shared session. Successful bodies go
/// into the report store under the request's content address (which
/// fires replication in cluster mode).
fn execute_local(shared: &Shared, request: Request) -> String {
    let key = request.cache_key();
    if let Some(key) = &key {
        if let Some(body) = warm_from_successor(shared, key) {
            return protocol::ok_frame(true, &body);
        }
    }
    let body = match request {
        Request::Analyze { job, options } => shared
            .session
            .run_one_request_repeat(&job, &options.request, options.repeat, options.hierarchy)
            .map(|outcome| protocol::analyze_body(&outcome, options.schema)),
        // Advice never consults the memory model: on an upload `mem`
        // only addresses the store.
        Request::AnalyzeProfile { job, profile, options, .. } => shared
            .session
            .advise_profile_request(&job, &profile, &options.request)
            .map(|report| protocol::profile_body(&job, &profile, &report, options.schema)),
        Request::Sleep { ms } => {
            std::thread::sleep(Duration::from_millis(ms));
            return protocol::ok_frame(false, &format!("{{\"slept_ms\":{ms}}}"));
        }
        // A self-`leave` ships the whole store; it is the one
        // membership op that takes a worker slot.
        Request::Leave { .. } => return cluster::drain_self(shared),
        // Handled inline by the connection layer; never queued.
        Request::Status
        | Request::Shutdown
        | Request::ProfileBegin { .. }
        | Request::ProfileChunk { .. }
        | Request::ProfileEnd { .. }
        | Request::ProfileAbort { .. }
        | Request::StoreGet { .. }
        | Request::StorePut { .. }
        | Request::Join { .. }
        | Request::RingStatus => {
            return protocol::error_frame("internal error: control op reached the worker pool")
        }
    };
    match body {
        Ok(body) => {
            let key = key.expect("analysis requests are cacheable");
            protocol::ok_frame(false, &shared.store.insert(&key, &body.compact()))
        }
        Err(e) => {
            shared.metrics.analysis_errors.fetch_add(1, Ordering::Relaxed);
            protocol::job_error_frame(&e)
        }
    }
}
