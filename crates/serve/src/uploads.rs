//! Chunked profile uploads: `profile_begin` / `profile_chunk` /
//! `profile_end` / `profile_abort`.
//!
//! Open uploads are scoped to one connection ([`Uploads`] lives beside
//! the socket in the event loop), so abandoned uploads die with it and
//! ids never collide across clients. Only the running merge is retained
//! — never the individual chunks — and every retained PC is charged
//! against per-upload, per-connection and daemon-wide budgets.

use crate::dispatch::{Control, Handled, Pending};
use crate::protocol::{self, Request, WireOptions};
use crate::server::Shared;
use gpa_pipeline::AnalysisJob;
use gpa_sampling::KernelProfile;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// Open chunked uploads are scoped to one connection: abandoned uploads
/// die with the socket instead of leaking daemon-global state, and ids
/// never collide across clients.
const MAX_UPLOADS_PER_CONNECTION: usize = 8;

/// Hard cap on chunks per upload. Each accepted chunk can add up to one
/// frame's worth of PC entries to the retained merge, so without a cap
/// a client could grow daemon memory one 8 MiB frame at a time.
const MAX_CHUNKS_PER_UPLOAD: u64 = 64;

/// Hard cap on distinct PCs in an upload's running merge — the actual
/// retained-memory bound (chunks with disjoint PC keys accumulate).
/// Far above any real program's instruction count.
const MAX_UPLOAD_PCS: usize = 1 << 18;

/// Daemon-global cap on PC entries retained across *all* open uploads
/// on *all* connections — the per-upload/per-connection caps bound one
/// client, this bounds the fleet (a swarm of connections each parking
/// maximal uploads would otherwise grow daemon memory without limit).
const MAX_TOTAL_UPLOAD_PCS: usize = 1 << 21;

/// One open chunked upload: the target job, the advice options fixed at
/// `profile_begin`, and the running merge (never the individual
/// chunks).
struct Upload {
    job: AnalysisJob,
    options: WireOptions,
    merged: Option<KernelProfile>,
    chunks: u64,
}

/// One connection's open uploads.
#[derive(Default)]
pub(crate) struct Uploads {
    open: HashMap<u64, Upload>,
    next_id: u64,
}

/// The bookkeeping a dispatched `profile_end` carries: enough to
/// restore the upload on a backpressure rejection, or to release its
/// budget share once the worker answers.
pub(crate) struct UploadTicket {
    upload_id: u64,
    chunks: u64,
    retained_pcs: u64,
}

/// `profile_begin`: opens an upload slot after validating (and warming)
/// the job's module artifacts, so a typo'd app or out-of-range variant
/// fails before the client streams megabytes of chunks.
pub(crate) fn upload_begin(
    shared: &Shared,
    state: &mut Uploads,
    job: AnalysisJob,
    options: WireOptions,
) -> String {
    if state.open.len() >= MAX_UPLOADS_PER_CONNECTION {
        return protocol::error_frame(&format!(
            "too many open uploads on this connection (limit {MAX_UPLOADS_PER_CONNECTION}); \
             finish one with profile_end first"
        ));
    }
    if let Err(e) = shared.session.artifacts(&job) {
        return protocol::job_error_frame(&e);
    }
    let id = state.next_id;
    state.next_id += 1;
    state.open.insert(id, Upload { job, options, merged: None, chunks: 0 });
    protocol::ok_frame(false, &format!("{{\"upload_id\":{id}}}"))
}

/// `profile_chunk`: folds one chunk into the upload's running merge.
/// Every rejection (chunk-count cap, per-upload or daemon-wide PC
/// budget, merge mismatch) leaves the upload in its previous, usable
/// state.
pub(crate) fn upload_chunk(
    shared: &Shared,
    state: &mut Uploads,
    upload_id: u64,
    profile: Box<KernelProfile>,
) -> String {
    let Some(upload) = state.open.get_mut(&upload_id) else {
        return protocol::error_frame(&format!("unknown upload id {upload_id}"));
    };
    if upload.chunks >= MAX_CHUNKS_PER_UPLOAD {
        return protocol::error_frame(&format!(
            "upload {upload_id} already holds {MAX_CHUNKS_PER_UPLOAD} chunks \
             (the limit); send profile_end"
        ));
    }
    // The documented bound is on *distinct* PCs in the running merge,
    // so count only this chunk's genuinely new keys (replay-style
    // chunks overlap heavily).
    let (merged_pcs, new_pcs) = match &upload.merged {
        None => (0, profile.pcs.len()),
        Some(acc) => {
            (acc.pcs.len(), profile.pcs.keys().filter(|pc| !acc.pcs.contains_key(pc)).count())
        }
    };
    if merged_pcs + new_pcs > MAX_UPLOAD_PCS {
        return protocol::error_frame(&format!(
            "upload {upload_id} would exceed {MAX_UPLOAD_PCS} merged PCs"
        ));
    }
    if shared.upload_pcs.load(Ordering::Relaxed) + new_pcs as u64 > MAX_TOTAL_UPLOAD_PCS as u64 {
        return protocol::error_frame(&format!(
            "daemon-wide upload budget of {MAX_TOTAL_UPLOAD_PCS} retained PCs exhausted; \
             retry later"
        ));
    }
    match &mut upload.merged {
        None => upload.merged = Some(*profile),
        Some(acc) => {
            if let Err(e) = acc.merge_in(&profile) {
                return protocol::error_frame(&format!("chunk does not merge: {e}"));
            }
        }
    }
    upload.chunks += 1;
    shared.upload_pcs.fetch_add(new_pcs as u64, Ordering::Relaxed);
    protocol::ok_frame(false, &format!("{{\"received\":{}}}", upload.chunks))
}

/// `profile_abort`: discards an open upload and releases its share of
/// the daemon-wide PC budget.
pub(crate) fn upload_abort(shared: &Shared, state: &mut Uploads, upload_id: u64) -> String {
    match state.open.remove(&upload_id) {
        Some(upload) => {
            release_upload_pcs(shared, &upload);
            protocol::ok_frame(false, "{\"aborted\":true}")
        }
        None => protocol::error_frame(&format!("unknown upload id {upload_id}")),
    }
}

/// `profile_end`: finalizes an upload as a synthesized
/// `analyze_profile` of the merged document — same body, same content
/// address, so chunked and whole submissions share one report-store
/// entry. A backpressure rejection restores the upload (the "retry
/// later" advice must be followable); success and cache hits release
/// its budget share.
pub(crate) fn upload_end(shared: &Shared, state: &mut Uploads, upload_id: u64) -> Handled {
    let Some(upload) = state.open.remove(&upload_id) else {
        return Handled::Reply(
            protocol::error_frame(&format!("unknown upload id {upload_id}")),
            Control::Continue,
        );
    };
    let Upload { job, options, merged, chunks } = upload;
    let Some(profile) = merged else {
        return Handled::Reply(
            protocol::error_frame(&format!(
                "upload {upload_id} has no chunks; send profile_chunk before profile_end"
            )),
            Control::Continue,
        );
    };
    let retained_pcs = profile.pcs.len() as u64;
    let canon = profile.to_doc().compact();
    let request = Request::AnalyzeProfile { job, profile: Box::new(profile), canon, options };
    let addr = request.cache_key().map(|key| (crate::store::fingerprint(&key), key));
    if let Some(body) = addr.as_ref().and_then(|(hash, key)| shared.store.get_at(*hash, key)) {
        shared.upload_pcs.fetch_sub(retained_pcs, Ordering::Relaxed);
        return Handled::Reply(protocol::ok_frame(true, &body), Control::Continue);
    }
    Handled::Dispatch(Pending {
        request,
        addr,
        ticket: Some(UploadTicket { upload_id, chunks, retained_pcs }),
    })
}

/// Settles a dispatched `profile_end` once a worker answered (any
/// frame, success or analysis error: the upload is consumed).
pub(crate) fn settle_ticket(shared: &Shared, ticket: UploadTicket) {
    shared.upload_pcs.fetch_sub(ticket.retained_pcs, Ordering::Relaxed);
}

/// Re-opens a `profile_end` upload whose dispatch was rejected, so the
/// "retry later" backpressure advice stays followable.
pub(crate) fn restore_upload(state: &mut Uploads, ticket: UploadTicket, request: Request) {
    if let Request::AnalyzeProfile { job, profile, options, .. } = request {
        state.open.insert(
            ticket.upload_id,
            Upload { job, options, merged: Some(*profile), chunks: ticket.chunks },
        );
    }
}

/// Abandoned uploads die with their connection: returns their share of
/// the daemon-wide retained-PC budget.
pub(crate) fn release_all(shared: &Shared, state: &Uploads) {
    for upload in state.open.values() {
        release_upload_pcs(shared, upload);
    }
}

/// Returns an upload's retained PCs to the daemon-wide budget.
fn release_upload_pcs(shared: &Shared, upload: &Upload) {
    if let Some(merged) = &upload.merged {
        shared.upload_pcs.fetch_sub(merged.pcs.len() as u64, Ordering::Relaxed);
    }
}
