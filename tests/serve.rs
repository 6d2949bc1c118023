//! Integration tests for the advisor daemon: concurrent clients against
//! a live `gpa-serve` on an ephemeral port.
//!
//! The acceptance bar for the subsystem: 8 concurrent clients over the
//! 21-app registry get responses byte-identical to `Session::run_one`,
//! a second wave of identical requests is answered from the report
//! store (cache hits observable via `status`), a full queue rejects
//! instead of growing, and shutdown is clean.

use gpa::core::{schema, AdviceRequest, OptimizerId};
use gpa::json::Json;
use gpa::pipeline::{AnalysisJob, Session};
use gpa::sampling::PcStats;
use gpa::serve::{
    protocol, serve, serve_on, serve_on_with, Clock, FaultAction, PeerFault, PeerMeta, PeerOp,
    Request, Response, Ring, Seams, ServeClient, ServerConfig, WireOptions, HEARTBEAT_INTERVAL,
    IDLE_TIMEOUT, PEER_TRIP_COOLDOWN,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

fn test_server(config: ServerConfig) -> gpa::serve::ServerHandle {
    serve(Arc::new(Session::test()), config).expect("daemon binds an ephemeral port")
}

/// A daemon on `listener` with injected seams.
fn test_server_on(
    listener: TcpListener,
    config: ServerConfig,
    seams: Seams,
) -> gpa::serve::ServerHandle {
    serve_on_with(Arc::new(Session::test()), listener, config, seams).expect("daemon starts")
}

fn loopback() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port")
}

/// Seams on a manual clock.
fn on_clock(clock: &Clock) -> Seams {
    Seams { clock: clock.clone(), ..Seams::default() }
}

/// Seams whose `before_job` parks the first dequeued job until the
/// returned gate is opened (or dropped; a forgotten gate gives up after
/// 10 s, so a failing test cannot hang the daemon's shutdown).
/// `entered` fires once that job holds its worker.
fn hold_first_job() -> (Seams, mpsc::Receiver<()>, mpsc::Sender<()>) {
    let (entered_tx, entered) = mpsc::channel();
    let (open, gate) = mpsc::channel::<()>();
    let (gate, held) = (Mutex::new(gate), AtomicBool::new(false));
    let before_job = move || {
        if !held.swap(true, Ordering::SeqCst) {
            entered_tx.send(()).expect("the test waits for the held job");
            let _ = gate.lock().unwrap().recv_timeout(Duration::from_secs(10));
        }
    };
    (Seams { before_job: Some(Arc::new(before_job)), ..Seams::default() }, entered, open)
}

/// `analyze app` on its own connection and thread.
fn spawn_analyze(addr: SocketAddr, app: &'static str) -> JoinHandle<Response> {
    std::thread::spawn(move || {
        let mut client = ServeClient::connect(addr).expect("connect");
        client.analyze(app, 0).expect("answered")
    })
}

/// One `status` body from `addr`.
fn status_of(addr: impl std::net::ToSocketAddrs) -> Json {
    let mut client = ServeClient::connect(addr).expect("connect");
    client.status().expect("status").into_result().expect("ok")
}

/// Polls `status` on `addr` until `done` holds, for at most 10 s.
fn wait_for_status(addr: impl std::net::ToSocketAddrs, what: &str, done: impl Fn(&Json) -> bool) {
    let mut client = ServeClient::connect(addr).expect("connect");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let status = client.status().expect("status").into_result().expect("ok");
        if done(&status) {
            return;
        }
        assert!(std::time::Instant::now() < deadline, "status never showed {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn queue_depth(status: &Json) -> u64 {
    status.field("queue").unwrap().field("depth").unwrap().as_u64().unwrap()
}

fn ephemeral() -> ServerConfig {
    ServerConfig { workers: 4, ..ServerConfig::ephemeral() }
}

/// The reference body: what `Session::run_one` yields, rendered exactly
/// as the daemon renders it.
fn reference_body(session: &Session, job: &AnalysisJob) -> String {
    protocol::analyze_body(&session.run_one(job).expect("reference run"), 1).compact()
}

#[test]
fn concurrent_clients_get_bytes_identical_to_run_one() {
    let handle = test_server(ephemeral());
    let addr = handle.local_addr();
    let reference = Session::test();
    let jobs: Vec<AnalysisJob> = reference.jobs_for_all_apps();
    assert_eq!(jobs.len(), 21);

    // 8 clients, each analyzing every app (first-come computes, the
    // rest hit the store — either way the bytes must match run_one).
    let bodies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|client_idx| {
                let jobs = &jobs;
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    let mut out = Vec::new();
                    // Stagger the walk so clients collide on different apps.
                    for i in 0..jobs.len() {
                        let job = &jobs[(i + 3 * client_idx) % jobs.len()];
                        let response =
                            client.analyze(&job.app, job.variant).expect("analyze round-trip");
                        assert!(response.ok, "{}: {:?}", job, response.error);
                        out.push((job.clone(), response.result.expect("body").compact()));
                    }
                    out.sort_by(|(a, _), (b, _)| (&a.app, a.variant).cmp(&(&b.app, b.variant)));
                    out.into_iter().map(|(_, body)| body).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let mut sorted_jobs = jobs.clone();
    sorted_jobs.sort_by(|a, b| (&a.app, a.variant).cmp(&(&b.app, b.variant)));
    let expected: Vec<String> = sorted_jobs.iter().map(|j| reference_body(&reference, j)).collect();
    for (idx, client_bodies) in bodies.iter().enumerate() {
        assert_eq!(client_bodies, &expected, "client {idx} saw different bytes");
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn second_wave_is_served_from_the_report_store() {
    let handle = test_server(ephemeral());
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    let apps = ["rodinia/hotspot", "rodinia/gaussian", "rodinia/nw"];
    let first: Vec<String> = apps
        .iter()
        .map(|app| {
            let r = client.analyze(app, 0).expect("first wave");
            assert!(r.ok);
            r.result.unwrap().compact()
        })
        .collect();
    let mut cached_seen = 0;
    for (app, expected) in apps.iter().zip(&first) {
        let r = client.analyze(app, 0).expect("second wave");
        assert!(r.ok);
        cached_seen += usize::from(r.cached);
        assert_eq!(&r.result.unwrap().compact(), expected, "cached bytes identical");
    }
    assert_eq!(cached_seen, apps.len(), "entire second wave is cache hits");

    let status = client.status().expect("status").into_result().expect("ok");
    let store = status.field("store").unwrap();
    assert!(store.field("hits").unwrap().as_u64().unwrap() >= 3, "hits visible in metrics");
    assert_eq!(store.field("entries").unwrap().as_u64().unwrap(), 3);
    let ops = status.field("ops").unwrap();
    assert_eq!(ops.field("analyze").unwrap().as_u64().unwrap(), 6);
    handle.shutdown();
    handle.join();
}

#[test]
fn analyze_profile_decouples_profiling_from_advising() {
    let handle = test_server(ephemeral());
    let reference = Session::test();
    let job = AnalysisJob::new("rodinia/hotspot", 0);
    // "Client side": gather the profile locally (standing in for a real
    // CUPTI dump) and submit only the profile — the daemon must not
    // re-simulate.
    let (_, profile, _) = reference.profile_one(&job).expect("local profiling");
    let profile_doc = Json::parse(&profile.to_json()).expect("profile serializes");

    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    let response = client.analyze_profile(&job.app, job.variant, &profile_doc).expect("request");
    assert!(response.ok, "{:?}", response.error);
    let body = response.result.unwrap();

    let report = reference.advise_profile(&job, &profile).expect("local advising");
    let expected = protocol::profile_body(&job, &profile, &report, 1).compact();
    assert_eq!(body.compact(), expected, "daemon advice matches local advise_profile");

    // Same submission again: a content-addressed cache hit.
    let again = client.analyze_profile(&job.app, job.variant, &profile_doc).expect("repeat");
    assert!(again.cached, "identical profile submission hits the store");
    assert_eq!(again.result.unwrap().compact(), expected);

    // A job the registry does not hold is an analysis error, and the
    // connection stays usable.
    for (app, variant, needle) in
        [("no/such-app", 0, "unknown app"), (job.app.as_str(), 99, "variant out of range")]
    {
        let r = client.analyze_profile(app, variant, &profile_doc).expect("round-trip");
        assert!(!r.ok, "{app} v{variant}");
        assert!(r.error.unwrap().contains(needle), "{app} v{variant}");
    }
    let last = client.analyze_profile(&job.app, job.variant, &profile_doc).expect("usable");
    assert!(last.cached && last.ok);
    handle.shutdown();
    handle.join();
}

/// The v2 negotiation contract: one daemon answers v1 and v2 clients
/// for the same request; the v1 body keeps the pre-v2 shape; each
/// version caches independently and byte-identically.
#[test]
fn daemon_answers_v1_and_v2_clients_for_the_same_request() {
    let handle = test_server(ephemeral());
    let reference = Session::test();
    let job = AnalysisJob::new("rodinia/hotspot", 0);
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");

    // A client that never mentions `schema` gets the flat v1 body with
    // the pre-v2 field set, bytes equal to the local v1 rendering.
    let v1 = client.analyze(&job.app, job.variant).expect("v1 round-trip");
    assert!(v1.ok, "{:?}", v1.error);
    let v1_body = v1.result.unwrap();
    let keys: Vec<&str> = v1_body.entries().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["app", "variant", "kernel", "cycles", "total_samples", "issue_ratio", "advice", "text"],
        "v1 clients see the unchanged field set"
    );
    assert_eq!(v1_body.compact(), reference_body(&reference, &job));

    // The same request with `schema: 2` carries the structured report.
    let v2 = client.analyze_with(&job.app, job.variant, &WireOptions::v2()).expect("v2");
    assert!(v2.ok, "{:?}", v2.error);
    let v2_body = v2.result.unwrap();
    assert_eq!(v2_body.field("schema").unwrap().as_u64().unwrap(), 2);
    let local = reference.run_one(&job).unwrap().report;
    assert_eq!(
        v2_body.field("report").unwrap().compact(),
        schema::report_to_json(&local).compact(),
        "daemon v2 report equals local advise"
    );
    assert_eq!(
        v2_body.field("text").unwrap(),
        v1_body.field("text").unwrap(),
        "rendered text identical across schema versions"
    );

    // Both versions hit the store independently, byte-identically.
    let v1_again = client.analyze(&job.app, job.variant).expect("v1 repeat");
    assert!(v1_again.cached, "v1 repeat is a cache hit");
    assert_eq!(v1_again.result.unwrap().compact(), v1_body.compact());
    let v2_again = client.analyze_with(&job.app, job.variant, &WireOptions::v2()).expect("v2");
    assert!(v2_again.cached, "v2 repeat is a cache hit");
    assert_eq!(v2_again.result.unwrap().compact(), v2_body.compact());

    // Request options shape the body (and address the cache) per call.
    let mut top1 = WireOptions::v2();
    top1.request.top = Some(1);
    let top = client.analyze_with(&job.app, job.variant, &top1).expect("top-1");
    assert!(!top.cached, "different options are a different content address");
    let local_top = reference.run_one_request(&job, &top1.request).unwrap().report;
    assert_eq!(local_top.items.len(), 1);
    assert_eq!(
        top.result.unwrap().field("report").unwrap().compact(),
        schema::report_to_json(&local_top).compact()
    );

    // `status` advertises the negotiable versions.
    let status = client.status().unwrap().into_result().unwrap();
    let versions: Vec<u64> = status
        .field("schemas")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    assert_eq!(versions, vec![1, 2]);
    handle.shutdown();
    handle.join();
}

/// `analyze_profile` negotiates the schema the same way `analyze` does.
#[test]
fn analyze_profile_negotiates_v2() {
    let handle = test_server(ephemeral());
    let reference = Session::test();
    let job = AnalysisJob::new("rodinia/nw", 0);
    let (_, profile, _) = reference.profile_one(&job).expect("local profiling");
    let profile_doc = Json::parse(&profile.to_json()).expect("profile serializes");

    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    let response = client
        .analyze_profile_with(&job.app, job.variant, &profile_doc, &WireOptions::v2())
        .expect("request");
    assert!(response.ok, "{:?}", response.error);
    let body = response.result.unwrap();
    let local = reference.advise_profile(&job, &profile).expect("local advising");
    assert_eq!(body.field("report").unwrap().compact(), schema::report_to_json(&local).compact());
    handle.shutdown();
    handle.join();
}

/// A whole profile always fits one `analyze_profile` frame, so no
/// upload needs splitting. A profile holds at most one row per sampled
/// instruction; for every registry module, the module's instruction
/// count times the longest row the writer can render (the module's
/// last PC, every counter at `u64::MAX`), plus its real profile header,
/// must stay under a quarter of the frame cap. Recorded: the largest
/// module is `rodinia/myocyte` v2 at 902 instructions, a worst-case row
/// is 621 bytes, so the worst profile is ≈ 560 KB — ≈ 15× headroom
/// under the 8 MiB cap.
#[test]
fn the_largest_possible_profile_of_every_registry_module_fits_a_quarter_frame() {
    let (full, test) = (Session::full(), Session::test());
    for job in test.jobs_for_all_variants() {
        let artifacts = full.artifacts(&job).expect("registry job");
        let module = &artifacts.spec.module;
        let last_pc =
            module.functions.iter().filter(|f| !f.is_empty()).map(|f| f.pc_of(f.len() - 1));
        let (instrs, last_pc) = (module.instr_count(), last_pc.max().expect("instructions"));
        let (_, mut profile, _) = test.profile_one(&job).expect("local profiling");
        profile.pcs.clear();
        let header = profile.to_doc().compact().len();
        let max = [u64::MAX; gpa::sim::N_REASONS];
        let row = PcStats { total: u64::MAX, by_reason: max, latency_by_reason: max };
        profile.pcs.insert(last_pc, row);
        // One row's bytes, plus the comma that separates it from the next.
        let row_bytes = profile.to_doc().compact().len() - header + 1;
        let worst = header + instrs * row_bytes;
        assert!(
            4 * worst as u64 <= protocol::MAX_REQUEST_BYTES,
            "{} v{}: {instrs} instructions x {row_bytes}-byte rows + {header}-byte header = \
             {worst} bytes, over a quarter of the {}-byte frame cap",
            job.app,
            job.variant,
            protocol::MAX_REQUEST_BYTES
        );
    }
}

/// Daemon-side repeat profiling: `"repeat": n` on `analyze` merges `n`
/// replayed launches, matches the local repeat path byte for byte, and
/// caches separately from the single-launch request.
#[test]
fn analyze_repeat_merges_replays_daemon_side() {
    let handle = test_server(ephemeral());
    let reference = Session::test();
    let job = AnalysisJob::new("rodinia/hotspot", 0);
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");

    let single = client.analyze(&job.app, job.variant).expect("single");
    assert!(single.ok);
    let single_body = single.result.unwrap();

    let options = WireOptions { repeat: 3, ..WireOptions::default() };
    let repeated = client.analyze_with(&job.app, job.variant, &options).expect("repeat");
    assert!(repeated.ok, "{:?}", repeated.error);
    assert!(!repeated.cached, "repeat count addresses its own cache entry");
    let repeated_body = repeated.result.unwrap();
    let samples = |b: &Json| b.field("total_samples").unwrap().as_u64().unwrap();
    let cycles = |b: &Json| b.field("cycles").unwrap().as_u64().unwrap();
    assert!(samples(&repeated_body) > samples(&single_body));
    assert_eq!(cycles(&repeated_body), cycles(&single_body), "ground truth unchanged");

    let local = reference
        .run_one_request_repeat(&job, &options.request, 3, false)
        .expect("local repeat reference");
    let expected = protocol::analyze_body(&local, 1).compact();
    assert_eq!(repeated_body.compact(), expected, "daemon repeat equals local repeat");
    handle.shutdown();
    handle.join();
}

/// One session answers both memory models: `"mem": "hierarchy"` is a
/// per-request value on the daemon's own session, so it shares that
/// session's artifacts, and a request's optimizer filter scopes the
/// advice under either model.
#[test]
fn one_session_answers_both_memory_models() {
    let two = [OptimizerId::ThreadIncrease, OptimizerId::BlockIncrease];
    let job = AnalysisJob::new("rodinia/gaussian", 0);
    let (flat_ref, hier_ref) = (Session::test(), Session::test().with_hierarchy());
    for custom in [false, true] {
        let request = match custom {
            false => AdviceRequest::default(),
            true => AdviceRequest::default().with_optimizers(&two),
        };
        let flat_opts = WireOptions { request: request.clone(), ..WireOptions::default() };
        let hier = WireOptions { hierarchy: true, ..flat_opts.clone() };
        let reference = |session: &Session| {
            let outcome = session.run_one_request(&job, &request).expect("reference run");
            protocol::analyze_body(&outcome, 1).compact()
        };
        let session = Arc::new(Session::test());
        let handle = serve(Arc::clone(&session), ephemeral()).expect("daemon binds");
        let mut client = ServeClient::connect(handle.local_addr()).expect("connect");

        let flat = client.analyze_with(&job.app, job.variant, &flat_opts).expect("flat");
        let flat = flat.into_result().unwrap();
        assert_eq!(flat.compact(), reference(&flat_ref), "custom {custom}: flat");
        let timed = client.analyze_with(&job.app, job.variant, &hier).expect("hierarchy");
        assert!(!timed.cached, "the model is part of the content address");
        let timed = timed.into_result().unwrap();
        assert_eq!(timed.compact(), reference(&hier_ref), "custom {custom}: hierarchy");
        assert_ne!(timed.compact(), flat.compact(), "the models time gaussian apart");

        let (_, profile, _) = hier_ref.profile_one(&job).expect("local hierarchy profile");
        let doc = Json::parse(&profile.to_json()).expect("profile serializes");
        let advised = client
            .analyze_profile_with(&job.app, job.variant, &doc, &hier)
            .expect("hierarchy upload")
            .into_result()
            .unwrap();
        let report =
            hier_ref.advise_profile_request(&job, &profile, &request).expect("local advising");
        let expected = protocol::profile_body(&job, &profile, &report, 1).compact();
        assert_eq!(advised.compact(), expected, "custom {custom}: hierarchy upload");

        for body in [&flat, &timed, &advised] {
            let advice = body.field("advice").unwrap().as_array().unwrap();
            assert!(!advice.is_empty(), "gaussian's tiny blocks match a parallel optimizer");
            let theirs = advice.iter().all(|item| {
                let name = item.field("optimizer").unwrap().as_str().unwrap();
                two.iter().any(|id| id.name() == name)
            });
            assert!(theirs || !custom, "only the requested optimizers: {}", body.compact());
        }

        let status = client.status().expect("status").into_result().expect("ok");
        let entries = status.field("store").unwrap().field("entries").unwrap().as_u64().unwrap();
        assert_eq!(entries, 3, "two models and the upload are three store entries");
        assert_eq!(session.cached_modules(), 1, "one job, built once for both models");
        handle.shutdown();
        handle.join();
    }
}

/// A backpressure-rejected `analyze_profile` says "retry later" — and
/// the retry must actually work: the same frame resent on the same
/// connection is answered with the local `profile_body` bytes.
#[test]
fn analyze_profile_survives_backpressure_rejection() {
    let (seams, entered, open) = hold_first_job();
    let config = ServerConfig { workers: 1, queue: 1, ..ServerConfig::ephemeral() };
    let handle = test_server_on(loopback(), config, seams);
    let addr = handle.local_addr();
    let reference = Session::test();
    let job = AnalysisJob::new("rodinia/hotspot", 0);
    let (_, profile, _) = reference.profile_one(&job).expect("local profiling");
    let doc = Json::parse(&profile.to_json()).unwrap();
    let mut client = ServeClient::connect(addr).expect("connect");

    // Hold the single worker, then fill the single queue slot.
    let occupier = spawn_analyze(addr, "rodinia/nw");
    entered.recv().expect("the first job holds the worker");
    let queued = spawn_analyze(addr, "rodinia/bfs");
    wait_for_status(addr, "a queued job", |status| queue_depth(status) == 1);
    let rejected = client.analyze_profile(&job.app, job.variant, &doc).expect("round-trip");
    assert!(!rejected.ok, "analyze_profile hits backpressure");
    let msg = rejected.error.unwrap();
    assert!(msg.contains("request queue full (1 pending, capacity 1); retry later"), "{msg}");

    open.send(()).expect("the held job waits on the gate");
    assert!(occupier.join().unwrap().ok);
    assert!(queued.join().unwrap().ok);
    let done = client.analyze_profile(&job.app, job.variant, &doc).expect("retry after drain");
    assert!(done.ok, "{:?}", done.error);
    assert!(!done.cached, "the rejected frame computed nothing");
    let report = reference.advise_profile(&job, &profile).expect("local advising");
    let expected = protocol::profile_body(&job, &profile, &report, 1).compact();
    assert_eq!(done.result.unwrap().compact(), expected);
    handle.shutdown();
    handle.join();
}

#[test]
fn full_queue_rejects_with_backpressure_error() {
    // One worker, queue capacity 1: a job held on the gate occupies the
    // worker, a second fills the queue, the third must be rejected.
    let (seams, entered, open) = hold_first_job();
    let config = ServerConfig { workers: 1, queue: 1, ..ServerConfig::ephemeral() };
    let handle = test_server_on(loopback(), config, seams);
    let addr = handle.local_addr();

    let occupier = spawn_analyze(addr, "rodinia/hotspot");
    entered.recv().expect("the first job holds the worker");
    let queued = spawn_analyze(addr, "rodinia/nw");
    wait_for_status(addr, "a queued job", |status| queue_depth(status) == 1);
    let mut c = ServeClient::connect(addr).expect("connect");
    let rejected = c.analyze("rodinia/bfs", 0).expect("round-trip");
    assert!(!rejected.ok, "third request must be rejected");
    let msg = rejected.error.expect("error message");
    assert!(msg.contains("queue full"), "explicit backpressure: {msg}");

    let status = c.status().expect("status").into_result().expect("ok");
    let queue = status.field("queue").unwrap();
    assert!(queue.field("rejected").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(queue.field("capacity").unwrap().as_u64().unwrap(), 1);

    open.send(()).expect("the held job waits on the gate");
    assert!(occupier.join().unwrap().ok);
    assert!(queued.join().unwrap().ok);
    handle.shutdown();
    handle.join();
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let handle = test_server(ephemeral());
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    for (line, needle) in [
        ("this is not json", "malformed request"),
        ("{\"op\":\"warp-speed\"}", "unknown op"),
        ("{\"no_op\":true}", "missing `op`"),
    ] {
        let frame = client.request_line(line).expect("server answers bad input");
        let doc = Json::parse(frame).expect("error frame is JSON");
        assert!(!doc.field("ok").unwrap().as_bool().unwrap());
        let msg = doc.field("error").unwrap().as_str().unwrap();
        assert!(msg.contains(needle), "{line}: {msg}");
    }
    // The connection survives protocol errors; real work still flows.
    let ok = client.analyze("rodinia/hotspot", 0).expect("connection still usable");
    assert!(ok.ok);

    // Analysis errors carry the job identity.
    let bad = client.analyze("no/such-app", 0).expect("round-trip");
    assert!(!bad.ok);
    assert!(bad.error.unwrap().contains("unknown app"));

    let status = client.status().expect("status").into_result().expect("ok");
    let errors = status.field("errors").unwrap();
    assert_eq!(errors.field("protocol").unwrap().as_u64().unwrap(), 3);
    assert_eq!(errors.field("analysis").unwrap().as_u64().unwrap(), 1);
    handle.shutdown();
    handle.join();
}

/// There is no `sleep` op: a daemon answers one inline with the
/// unknown-op error, so it never occupies a worker, and `status.ops`
/// has no `sleep` key.
#[test]
fn the_sleep_op_is_an_unknown_op() {
    let handle = test_server(ephemeral());
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    let frame = client.request_line("{\"op\":\"sleep\",\"ms\":1}").expect("answered");
    let doc = Json::parse(frame).expect("error frame is JSON");
    assert!(!doc.field("ok").unwrap().as_bool().unwrap());
    assert_eq!(doc.field("error").unwrap().as_str().unwrap(), "unknown op `sleep`");
    let status = client.status().expect("status").into_result().expect("ok");
    let queue = status.field("queue").unwrap();
    assert_eq!(queue.field("depth").unwrap().as_u64().unwrap(), 0);
    assert_eq!(queue.field("peak").unwrap().as_u64().unwrap(), 0, "no worker was ever asked");
    assert!(status.field("ops").unwrap().get("sleep").is_none());
    assert_eq!(status.field("errors").unwrap().field("protocol").unwrap().as_u64().unwrap(), 1);
    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_op_stops_the_daemon_cleanly() {
    let handle = test_server(ephemeral());
    let addr = handle.local_addr();
    let mut client = ServeClient::connect(addr).expect("connect");
    let response = client.shutdown().expect("shutdown acknowledged");
    assert!(response.ok);
    // join() returning proves the accept loop, workers, and connection
    // threads all exited.
    handle.join();
    // And the port is actually closed.
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(ServeClient::connect(addr).is_err(), "daemon no longer listening after clean shutdown");
}

#[test]
fn lru_eviction_bounds_the_store() {
    let config = ServerConfig { workers: 2, store_capacity: 2, ..ServerConfig::ephemeral() };
    let handle = test_server(config);
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    for app in ["rodinia/hotspot", "rodinia/gaussian", "rodinia/nw", "rodinia/bfs"] {
        assert!(client.analyze(app, 0).expect("analyze").ok);
    }
    let status = client.status().expect("status").into_result().expect("ok");
    let store = status.field("store").unwrap();
    assert_eq!(store.field("entries").unwrap().as_u64().unwrap(), 2, "memory stays bounded");
    assert!(store.field("evictions").unwrap().as_u64().unwrap() >= 2);
    handle.shutdown();
    handle.join();
}

#[test]
fn persisted_store_warms_a_restarted_daemon() {
    let dir = std::env::temp_dir().join(format!("gpa-serve-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config =
        || ServerConfig { workers: 2, persist_dir: Some(dir.clone()), ..ServerConfig::ephemeral() };

    let first = test_server(config());
    let mut client = ServeClient::connect(first.local_addr()).expect("connect");
    let original = client.analyze("rodinia/hotspot", 0).expect("analyze");
    assert!(original.ok && !original.cached);
    let original_body = original.result.unwrap().compact();
    first.shutdown();
    first.join();

    // A fresh daemon over the same directory answers from disk without
    // re-simulating.
    let second = test_server(config());
    let mut client = ServeClient::connect(second.local_addr()).expect("connect");
    let warmed = client.analyze("rodinia/hotspot", 0).expect("analyze");
    assert!(warmed.ok && warmed.cached, "restart served from the disk tier");
    assert_eq!(warmed.result.unwrap().compact(), original_body);
    let status = client.status().expect("status").into_result().expect("ok");
    assert!(status.field("store").unwrap().field("disk_hits").unwrap().as_u64().unwrap() >= 1);
    second.shutdown();
    second.join();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Reactor engine
// ---------------------------------------------------------------------

/// The wire line for a default-options `analyze` of `(app, 0)`.
fn analyze_wire(app: &str) -> String {
    Request::Analyze { job: AnalysisJob::new(app, 0), options: WireOptions::default() }.to_wire()
}

/// The content address of a default-options `analyze` of `(app, 0)` —
/// what the daemon's store and the cluster ring hash.
fn analyze_key(app: &str) -> String {
    job_key(&AnalysisJob::new(app, 0))
}

/// The content address of a default-options `analyze` of `job`.
fn job_key(job: &AnalysisJob) -> String {
    Request::Analyze { job: job.clone(), options: WireOptions::default() }
        .cache_key()
        .expect("analyze is cacheable")
}

/// The reactor must frame requests by newline, not by read boundary: a
/// frame trickling in over several writes parses once complete, and
/// several frames arriving in one write all answer, in order.
#[test]
fn reactor_reassembles_partial_frames_and_pipelines_in_order() {
    let handle = test_server(ephemeral());
    let reference = Session::test();
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // One frame, three writes, pauses in between.
    let frame = "{\"op\":\"status\"}\n";
    for piece in [&frame[..5], &frame[5..11], &frame[11..]] {
        stream.write_all(piece.as_bytes()).expect("partial write");
        std::thread::sleep(Duration::from_millis(40));
    }
    let mut line = String::new();
    reader.read_line(&mut line).expect("response to the reassembled frame");
    let doc = Json::parse(&line).expect("frame JSON");
    assert!(doc.field("ok").unwrap().as_bool().unwrap(), "partial-frame status answered");

    // Three frames, one write: responses come back in request order.
    let pipelined = format!(
        "{}\n{}\n{}\n",
        analyze_wire("rodinia/hotspot"),
        analyze_wire("rodinia/nw"),
        "{\"op\":\"status\"}"
    );
    stream.write_all(pipelined.as_bytes()).expect("pipelined write");
    let mut bodies = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("pipelined response");
        bodies.push(Json::parse(&line).expect("frame JSON"));
    }
    for (idx, app) in ["rodinia/hotspot", "rodinia/nw"].iter().enumerate() {
        let job = AnalysisJob::new(*app, 0);
        assert_eq!(
            bodies[idx].field("result").unwrap().compact(),
            reference_body(&reference, &job),
            "pipelined response {idx} is {app}'s bytes, in order"
        );
    }
    assert!(bodies[2].field("result").unwrap().get("uptime_ms").is_some(), "status came last");
    handle.shutdown();
    handle.join();
}

/// The pending-byte budget is admission control, not buffering: with the
/// budget at zero, a job frame pipelined behind unflushed responses is
/// shed with an explicit error, and the shed is counted.
#[test]
fn pending_byte_budget_sheds_jobs_with_backpressure() {
    let config = ServerConfig { max_pending_bytes: 0, ..ephemeral() };
    let handle = test_server(config);
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // One small write, so every frame lands in the reactor's buffer in
    // one batch: the statuses queue response bytes, and the analyze job
    // behind them must be shed before it reaches the worker pool.
    let job_wire = analyze_wire("rodinia/hotspot");
    let burst = format!("{0}\n{0}\n{0}\n{1}\n", "{\"op\":\"status\"}", job_wire);
    stream.write_all(burst.as_bytes()).expect("burst write");
    let mut frames = Vec::new();
    for _ in 0..4 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("burst response");
        frames.push(Json::parse(&line).expect("frame JSON"));
    }
    for frame in &frames[..3] {
        assert!(frame.field("ok").unwrap().as_bool().unwrap(), "statuses answered normally");
    }
    assert!(!frames[3].field("ok").unwrap().as_bool().unwrap(), "job behind the backlog shed");
    let msg = frames[3].field("error").unwrap().as_str().unwrap();
    assert!(msg.contains("backlog over budget"), "shed names the budget: {msg}");

    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    let status = client.status().expect("status").into_result().expect("ok");
    let reactor = status.field("reactor").unwrap();
    assert!(reactor.field("byte_sheds").unwrap().as_u64().unwrap() >= 1, "shed counted");
    handle.shutdown();
    handle.join();
}

/// Sends one `status` line on a raw stream and reads its answer: the
/// connection is then registered, settled, and stamped with the
/// daemon clock's current instant.
fn touch(stream: &mut TcpStream) {
    stream.write_all(b"{\"op\":\"status\"}\n").expect("status write");
    let mut line = String::new();
    BufReader::new(&*stream).read_line(&mut line).expect("status answer");
    assert!(line.starts_with("{\"ok\":true"), "{line}");
}

/// The slow-client guard: a connection that goes quiet past the idle
/// deadline is reaped by the reactor's sweep (observed as EOF) and
/// counted in the metrics — kept at exactly the deadline, reaped one
/// nanosecond past it.
#[test]
fn idle_connections_are_reaped_and_counted() {
    let clock = Clock::manual();
    let config = ServerConfig { reactors: 1, ..ephemeral() };
    let handle = test_server_on(loopback(), config, on_clock(&clock));
    let mut idle = TcpStream::connect(handle.local_addr()).expect("connect");
    touch(&mut idle);
    // The reactor sweeps at the end of every turn, so the second of two
    // round trips on another connection of the (only) reactor reports
    // a sweep that ran after the clock moved.
    let mut probe = ServeClient::connect(handle.local_addr()).expect("connect");
    let mut reaped = || {
        probe.status().expect("status");
        let status = probe.status().expect("status").into_result().expect("ok");
        status.field("reactor").unwrap().field("idle_reaped").unwrap().as_u64().unwrap()
    };
    clock.advance(IDLE_TIMEOUT);
    assert_eq!(reaped(), 0, "kept at exactly the deadline");
    clock.advance(Duration::from_nanos(1));
    assert_eq!(reaped(), 1, "reaped one nanosecond past it");
    idle.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let n = idle.read(&mut [0u8; 16]).expect("daemon closed the idle connection");
    assert_eq!(n, 0, "idle connection saw EOF");
    handle.shutdown();
    handle.join();
}

/// The client's read timeout keeps a wedged (or just slow) daemon from
/// hanging `gpa request` forever.
#[test]
fn client_read_timeout_bounds_a_slow_daemon() {
    let (seams, entered, open) = hold_first_job();
    let handle = test_server_on(loopback(), ephemeral(), seams);
    let mut slow = ServeClient::connect(handle.local_addr()).expect("connect");
    slow.set_timeouts(Some(Duration::from_millis(150))).expect("timeouts");
    let err = slow.analyze("rodinia/nw", 0).expect_err("read must time out");
    assert!(
        matches!(err.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
        "timeout, not a hang: {err}"
    );
    entered.recv().expect("the timed-out job holds a worker");
    // The daemon itself is healthy; a fresh client still gets answers
    // from the other workers.
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    assert!(client.analyze("rodinia/hotspot", 0).expect("analyze").ok);
    open.send(()).expect("the held job waits on the gate");
    handle.shutdown();
    handle.join();
}

// ---------------------------------------------------------------------
// Multi-reactor serving
// ---------------------------------------------------------------------

/// `--reactors 1` is the compatibility anchor: across the whole 21-app
/// registry, a one-reactor daemon's bytes equal both `Session::run_one`
/// and a default-config daemon's answers, and the status surface
/// reports one reactor with the full byte budget.
#[test]
fn single_reactor_stays_byte_identical_across_all_apps() {
    let one = test_server(ServerConfig { reactors: 1, ..ephemeral() });
    let fallback = test_server(ephemeral());
    let reference = Session::test();
    let jobs = reference.jobs_for_all_apps();
    assert_eq!(jobs.len(), 21);
    assert_eq!(one.reactors(), 1);
    assert_eq!(one.accept_path(), "round_robin", "one reactor needs no reuseport group");

    let mut c1 = ServeClient::connect(one.local_addr()).expect("connect");
    let mut cd = ServeClient::connect(fallback.local_addr()).expect("connect");
    for job in &jobs {
        let expected = reference_body(&reference, job);
        let a = c1.analyze(&job.app, job.variant).expect("one-reactor analyze");
        assert!(a.ok, "{job}: {:?}", a.error);
        assert_eq!(a.result.unwrap().compact(), expected, "{job}: one-reactor bytes");
        let b = cd.analyze(&job.app, job.variant).expect("default analyze");
        assert!(b.ok, "{job}: {:?}", b.error);
        assert_eq!(b.result.unwrap().compact(), expected, "{job}: default-config bytes");
    }

    let status = c1.status().expect("status").into_result().expect("ok");
    let reactor = status.field("reactor").unwrap();
    assert_eq!(reactor.field("count").unwrap().as_u64().unwrap(), 1);
    let per = status.field("reactors").unwrap().as_array().unwrap();
    assert_eq!(per.len(), 1, "one entry in status.reactors");
    assert_eq!(
        per[0].field("byte_budget").unwrap().as_u64().unwrap(),
        ServerConfig::default().max_pending_bytes,
        "a single reactor owns the whole byte budget"
    );
    assert!(per[0].field("accepted").unwrap().as_u64().unwrap() >= 1);
    one.shutdown();
    one.join();
    fallback.shutdown();
    fallback.join();
}

/// A requested reactor count above [`gpa::serve::MAX_REACTORS`] is
/// capped, and `status` reports the *effective* count.
#[test]
fn reactor_count_is_capped_and_reported_effectively() {
    let handle = test_server(ServerConfig { reactors: 64, ..ephemeral() });
    assert_eq!(handle.reactors(), gpa::serve::MAX_REACTORS);
    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    let status = client.status().expect("status").into_result().expect("ok");
    let reactor = status.field("reactor").unwrap();
    assert_eq!(
        reactor.field("count").unwrap().as_u64().unwrap(),
        gpa::serve::MAX_REACTORS as u64,
        "status reports the capped effective count"
    );
    let per = status.field("reactors").unwrap().as_array().unwrap();
    assert_eq!(per.len(), gpa::serve::MAX_REACTORS);
    let budget = ServerConfig::default().max_pending_bytes / gpa::serve::MAX_REACTORS as u64;
    for entry in per {
        assert_eq!(entry.field("byte_budget").unwrap().as_u64().unwrap(), budget);
    }
    handle.shutdown();
    handle.join();
}

/// On a multi-reactor daemon — kernel-balanced SO_REUSEPORT listeners —
/// pipelined frames on one connection still answer in order with
/// byte-identical bodies, and each reactor's own idle sweep still reaps
/// quiet connections.
#[test]
fn multi_reactor_pipelines_in_order_and_reaps_idle() {
    let clock = Clock::manual();
    let listener = gpa::serve::reactor::reuseport_listener("127.0.0.1:0".parse().unwrap())
        .expect("bind a reuseport listener");
    let config = ServerConfig { reactors: 2, ..ephemeral() };
    let handle = test_server_on(listener, config, on_clock(&clock));
    assert_eq!(handle.reactors(), 2);
    assert_eq!(handle.accept_path(), "reuseport");
    let reference = Session::test();

    // Enough fresh connections that the 4-tuple hash spreads them over
    // both listeners; each pipelines three frames and must get its
    // three answers in request order.
    for round in 0..8 {
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let pipelined = format!(
            "{}\n{}\n{}\n",
            analyze_wire("rodinia/hotspot"),
            analyze_wire("rodinia/nw"),
            "{\"op\":\"status\"}"
        );
        stream.write_all(pipelined.as_bytes()).expect("pipelined write");
        let mut bodies = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("pipelined response");
            bodies.push(Json::parse(&line).expect("frame JSON"));
        }
        for (idx, app) in ["rodinia/hotspot", "rodinia/nw"].iter().enumerate() {
            let job = AnalysisJob::new(*app, 0);
            assert_eq!(
                bodies[idx].field("result").unwrap().compact(),
                reference_body(&reference, &job),
                "round {round}: pipelined response {idx} is {app}'s bytes, in order"
            );
        }
        assert!(bodies[2].field("result").unwrap().get("uptime_ms").is_some(), "status last");
    }

    // A connection that goes quiet is reaped by whichever reactor owns
    // it (per-reactor sweeps, observed as EOF).
    let mut idle = TcpStream::connect(handle.local_addr()).expect("connect idle");
    touch(&mut idle);
    clock.advance(IDLE_TIMEOUT + Duration::from_nanos(1));
    idle.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut buf = [0u8; 16];
    let n = idle.read(&mut buf).expect("daemon closed the idle connection");
    assert_eq!(n, 0, "idle connection saw EOF");

    let mut client = ServeClient::connect(handle.local_addr()).expect("connect");
    let status = client.status().expect("status").into_result().expect("ok");
    let reactor = status.field("reactor").unwrap();
    assert_eq!(reactor.field("count").unwrap().as_u64().unwrap(), 2);
    assert_eq!(reactor.field("accept").unwrap().as_str().unwrap(), "reuseport");
    assert!(reactor.field("idle_reaped").unwrap().as_u64().unwrap() >= 1, "reap in the roll-up");
    let per = status.field("reactors").unwrap().as_array().unwrap();
    assert_eq!(per.len(), 2);
    let accepted: u64 = per.iter().map(|r| r.field("accepted").unwrap().as_u64().unwrap()).sum();
    assert!(accepted >= 10, "every connection was accepted by some reactor: {accepted}");
    let reaped: u64 = per.iter().map(|r| r.field("idle_reaped").unwrap().as_u64().unwrap()).sum();
    assert!(reaped >= 1, "the reap is attributed to a reactor");
    handle.shutdown();
    handle.join();
}

// ---------------------------------------------------------------------
// Cluster mode
// ---------------------------------------------------------------------

/// Binds `n` loopback listeners first (learning every ephemeral port),
/// then starts one daemon per listener with the full peer roster — the
/// same bootstrap the CI smoke uses with fixed ports.
fn test_cluster(n: usize) -> (Vec<gpa::serve::ServerHandle>, Vec<String>) {
    test_cluster_with(n, |_| Seams::default())
}

/// [`test_cluster`], but each shard runs the seams `seams` gives for
/// its index — how the failure tests plant fault hooks on specific
/// members and drive the cluster's clock.
fn test_cluster_with(
    n: usize,
    seams: impl Fn(usize) -> Seams,
) -> (Vec<gpa::serve::ServerHandle>, Vec<String>) {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind shard")).collect();
    let addrs: Vec<String> =
        listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let peers =
                addrs.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, a)| a.clone()).collect();
            // Two reactors per shard: every cluster test (including the
            // chaos run) exercises the multi-reactor daemon on its
            // round-robin accept path (a pre-bound listener cannot grow
            // an SO_REUSEPORT group).
            let config =
                ServerConfig { workers: 2, reactors: 2, peers, ..ServerConfig::ephemeral() };
            serve_on_with(Arc::new(Session::test()), listener, config, seams(i))
                .expect("shard starts")
        })
        .collect();
    (handles, addrs)
}

/// Polls a shard's local store for `key` (replication is asynchronous).
fn wait_for_replica(addr: &str, key: &str, deadline: Duration) -> Option<String> {
    let start = std::time::Instant::now();
    let mut client = ServeClient::connect(addr).ok()?;
    while start.elapsed() < deadline {
        let r =
            client.request(&Request::StoreGet { key: key.to_string() }).ok()?.into_result().ok()?;
        if r.field("found").unwrap().as_bool().unwrap() {
            return Some(r.field("body").unwrap().compact());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    None
}

/// Binds a stopped shard's address again (the kernel may hold it
/// briefly after the old listener closes).
fn rebind(addr: &str) -> TcpListener {
    (0..50)
        .find_map(|_| {
            TcpListener::bind(addr).ok().or_else(|| {
                std::thread::sleep(Duration::from_millis(100));
                None
            })
        })
        .expect("rebind the shard's address")
}

/// Σ `status.cluster.<field>` over the shards at `addrs`.
fn cluster_sum(addrs: &[String], field: &str) -> u64 {
    let read = |addr: &String| {
        let mut client = ServeClient::connect(addr.as_str()).expect("connect shard");
        let status = client.status().expect("status").into_result().expect("ok");
        status.field("cluster").unwrap().field(field).unwrap().as_u64().unwrap()
    };
    addrs.iter().map(read).sum()
}

/// Polls until the shards at `addrs` have admitted `n` replicas between
/// them (replication is asynchronous).
fn wait_until_replicated(addrs: &[String], n: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while cluster_sum(addrs, "replicated_in") < n {
        assert!(std::time::Instant::now() < deadline, "replication never reached {n}");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(cluster_sum(addrs, "replicated_in"), n, "one replica per computed body");
}

/// Polls until every shard at `live` lists exactly `live` as members.
fn wait_for_roster(live: &[String]) {
    let mut want = live.to_vec();
    want.sort();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    for addr in live {
        let mut client = ServeClient::connect(addr.as_str()).expect("connect shard");
        loop {
            let view =
                client.request(&Request::RingStatus).expect("ring").into_result().expect("ok");
            let members = view.field("members").unwrap().as_array().unwrap();
            if members.iter().map(|m| m.as_str().unwrap()).eq(want.iter().map(String::as_str)) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "{addr} never converged on {want:?}");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// The index of the shard owning the most of `jobs`' keys.
fn heaviest_owner(addrs: &[String], jobs: &[AnalysisJob]) -> usize {
    let ring = Ring::new(addrs.iter().cloned());
    let owned = |addr: &String| jobs.iter().filter(|j| ring.owner(&job_key(j)) == addr).count();
    (0..addrs.len()).max_by_key(|&i| owned(&addrs[i])).expect("a nonempty cluster")
}

/// An address nothing listens on: dials to it are refused at once.
const NOWHERE: &str = "127.0.0.1:1";

/// Wakes `addr`'s cluster chore thread now rather than at its next
/// tick: a frame stamped with a newer epoch from `member`, a live member
/// of `addr`'s roster, queues a roster refresh from it, and the thread
/// checks whether a heartbeat is due after every wake.
fn wake_chores(addr: &str, member: &str) {
    let meta = PeerMeta { epoch: Some(999), from: Some(member.to_string()) };
    let poke = Request::StorePut { key: "wake".to_string(), body: "{}".to_string(), meta };
    let mut client = ServeClient::connect(addr).expect("connect shard");
    assert!(client.request(&poke).expect("store_put").ok);
}

/// `status.cluster.membership.heartbeats` of one status body.
fn heartbeats(status: &Json) -> u64 {
    let membership = status.field("cluster").unwrap().field("membership").unwrap();
    membership.field("heartbeats").unwrap().as_u64().unwrap()
}

/// `status.cluster.breaker.<field>` of one status body.
fn breaker(status: &Json, field: &str) -> u64 {
    let breaker = status.field("cluster").unwrap().field("breaker").unwrap();
    breaker.field(field).unwrap().as_u64().unwrap()
}

/// A fault hook that counts the calls of class `op` it sees and
/// answers the `n`-th (0-based) with `act(n)`.
fn count_calls(
    op: PeerOp,
    act: impl Fn(u64) -> Option<FaultAction> + Send + Sync + 'static,
) -> (PeerFault, Arc<AtomicU64>) {
    let seen = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&seen);
    let hook: PeerFault = Arc::new(move |_, call| {
        if call != op {
            return None;
        }
        act(counter.fetch_add(1, Ordering::SeqCst))
    });
    (hook, seen)
}

/// The cluster correctness anchor: whichever shard a client asks, over
/// all 21 apps, the bytes equal single-node `run_one` — computed,
/// forwarded, cached and replicated alike — and the second wave is
/// answered from the sharded store.
#[test]
fn three_shard_cluster_answers_byte_identically_from_any_shard() {
    let (handles, addrs) = test_cluster(3);
    let ring = Ring::new(addrs.iter().cloned());
    let reference = Session::test();
    let jobs = reference.jobs_for_all_apps();
    let expected: Vec<String> = jobs.iter().map(|j| reference_body(&reference, j)).collect();

    // Wave 1 through shard 0: every response byte-identical, none
    // cached (fresh cluster), and the keys shard 0 does not own were
    // forwarded.
    let mut client0 = ServeClient::connect(addrs[0].as_str()).expect("connect shard 0");
    for (job, want) in jobs.iter().zip(&expected) {
        let r = client0.analyze(&job.app, job.variant).expect("wave 1");
        assert!(r.ok, "{}: {:?}", job, r.error);
        assert!(!r.cached, "{job}: first ask computes");
        assert_eq!(&r.result.unwrap().compact(), want, "{job}: wave 1 bytes");
    }
    let status0 = client0.status().expect("status").into_result().expect("ok");
    let cluster0 = status0.field("cluster").unwrap();
    assert!(
        cluster0.field("forwards_out").unwrap().as_u64().unwrap() > 0,
        "shard 0 forwarded the keys it does not own"
    );
    assert_eq!(
        cluster0.field("members").unwrap().as_array().unwrap().len(),
        3,
        "all shards agree on the roster"
    );

    // Waves 2 and 3 through the other shards: byte-identical AND all
    // answered from the sharded store (every key's owner computed it in
    // wave 1).
    for addr in &addrs[1..] {
        let mut client = ServeClient::connect(addr.as_str()).expect("connect shard");
        for (job, want) in jobs.iter().zip(&expected) {
            let r = client.analyze(&job.app, job.variant).expect("later wave");
            assert!(r.ok, "{}: {:?}", job, r.error);
            assert!(r.cached, "{job}: the cluster already holds this report");
            assert_eq!(&r.result.unwrap().compact(), want, "{job}: later-wave bytes");
        }
    }

    // Replication: an owned key's bytes appear, verbatim, in the local
    // store of the key's replica holder (its next member on the ring).
    let key = analyze_key(&jobs[0].app);
    let holder = ring.replica(&key).expect("3-member ring").to_string();
    assert_ne!(holder, ring.owner(&key));
    let replica = wait_for_replica(&holder, &key, Duration::from_secs(5))
        .expect("replica reaches its holder");
    assert_eq!(replica, expected[0], "replicated bytes identical");

    for handle in handles {
        handle.shutdown();
        handle.join();
    }
}

/// A restarted shard warms owned keys from their replica holder
/// instead of recomputing: the replica flows back over `store_get` and
/// the response stays byte-identical.
#[test]
fn restarted_shard_warms_from_its_neighbor() {
    let (mut handles, addrs) = test_cluster(2);
    let ring = Ring::new(addrs.iter().cloned());
    let reference = Session::test();

    // Pick an app owned by shard 0 (over 21 apps one always is).
    let (job, key) = reference
        .jobs_for_all_apps()
        .into_iter()
        .map(|j| {
            let key = analyze_key(&j.app);
            (j, key)
        })
        .find(|(_, key)| ring.owner(key) == addrs[0])
        .expect("some app hashes to shard 0");
    let expected = reference_body(&reference, &job);

    let mut client = ServeClient::connect(addrs[0].as_str()).expect("connect shard 0");
    let first = client.analyze(&job.app, job.variant).expect("compute on the owner");
    assert!(first.ok && !first.cached);
    assert_eq!(first.result.unwrap().compact(), expected);

    // Wait until the replica lands on shard 1 (in a 2-member ring every
    // key of shard 0's has its replica there), then kill shard 0 —
    // memory store and all.
    assert!(
        wait_for_replica(&addrs[1], &key, Duration::from_secs(5)).is_some(),
        "replica reached the neighbor before the restart"
    );
    let shard0 = handles.remove(0);
    shard0.shutdown();
    shard0.join();

    // Restart shard 0 on the same address with a cold store.
    let config =
        ServerConfig { workers: 2, peers: vec![addrs[1].clone()], ..ServerConfig::ephemeral() };
    let restarted =
        serve_on(Arc::new(Session::test()), rebind(&addrs[0]), config).expect("shard restarts");

    // The first ask after the restart is answered from the neighbor's
    // replica — cached, byte-identical, and counted as a warm hit.
    let mut client = ServeClient::connect(addrs[0].as_str()).expect("reconnect shard 0");
    let warmed = client.analyze(&job.app, job.variant).expect("analyze after restart");
    assert!(warmed.ok, "{:?}", warmed.error);
    assert!(warmed.cached, "warmed from the neighbor, not recomputed");
    assert_eq!(warmed.result.unwrap().compact(), expected, "warmed bytes identical");
    let status = client.status().expect("status").into_result().expect("ok");
    let cluster = status.field("cluster").unwrap();
    assert!(cluster.field("peer_warm_hits").unwrap().as_u64().unwrap() >= 1);

    restarted.shutdown();
    restarted.join();
    for handle in handles {
        handle.shutdown();
        handle.join();
    }
}

// ---------------------------------------------------------------------
// Membership & failure
// ---------------------------------------------------------------------

/// A shard cannot be its own peer, and cannot join through itself —
/// both misconfigurations are refused at startup instead of producing
/// a ring that forwards to itself.
#[test]
fn self_addressed_cluster_configs_are_rejected() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let config =
        ServerConfig { workers: 1, peers: vec![addr.clone()], ..ServerConfig::ephemeral() };
    let err = serve_on(Arc::new(Session::test()), listener, config)
        .err()
        .expect("a self-addressed peer list must not start");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("duplicates a peer"), "names the mistake: {err}");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let config = ServerConfig { workers: 1, join: Some(addr), ..ServerConfig::ephemeral() };
    let err = serve_on(Arc::new(Session::test()), listener, config)
        .err()
        .expect("joining through yourself must not start");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

/// Live membership: a third shard joins a running 2-shard cluster via
/// `--join` — no restarts — the epoch advances past the static
/// bootstrap, and the joiner answers the keys the wider ring moved onto
/// it from its store: each one's old owner is now its replica holder,
/// so the joiner's first ask warms from there and no body is pushed.
#[test]
fn join_grows_the_ring_and_handoff_warms_the_new_shard() {
    let (handles, addrs) = test_cluster(2);
    let reference = Session::test();
    let jobs = reference.jobs_for_all_apps();

    // Warm the whole keyspace through shard 0: every key ends up in its
    // (old-ring) owner's store.
    let mut client0 = ServeClient::connect(addrs[0].as_str()).expect("connect shard 0");
    for job in &jobs {
        assert!(client0.analyze(&job.app, job.variant).expect("warm wave").ok);
    }
    wait_until_replicated(&addrs, jobs.len() as u64);

    // Bind the joiner's address before it starts, keeping one the wider
    // ring hands at least one of the 21 reports.
    let (listener, joiner_addr, new_ring) = std::iter::repeat_with(|| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind joiner");
        let addr = listener.local_addr().expect("addr").to_string();
        let ring = Ring::new([addrs[0].clone(), addrs[1].clone(), addr.clone()]);
        (listener, addr, ring)
    })
    .find(|(_, addr, ring)| jobs.iter().any(|j| ring.owner(&analyze_key(&j.app)) == *addr))
    .expect("some joiner address takes a key");

    let config =
        ServerConfig { workers: 2, join: Some(addrs[0].clone()), ..ServerConfig::ephemeral() };
    let joiner = serve_on(Arc::new(Session::test()), listener, config).expect("joiner starts");

    // The joiner adopted the seed's roster plus itself; the seed's
    // epoch moved for the join.
    let mut jc = ServeClient::connect(joiner_addr.as_str()).expect("connect joiner");
    let view = jc.request(&Request::RingStatus).expect("ring").into_result().expect("ok");
    assert_eq!(view.field("members").unwrap().as_array().unwrap().len(), 3);
    assert!(view.field("epoch").unwrap().as_u64().unwrap() >= 2);
    let seed_view = client0.request(&Request::RingStatus).expect("ring").into_result().expect("ok");
    assert!(
        seed_view
            .field("members")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .any(|m| m.as_str().unwrap() == joiner_addr),
        "the seed's roster lists the joiner"
    );
    assert!(seed_view.field("epoch").unwrap().as_u64().unwrap() >= 2);

    // Every report the wider ring moved onto the joiner is answered
    // `cached` and byte-identical: warmed from its old owner, which is
    // now the key's replica holder, with no `store_put` to the joiner.
    for moved in jobs.iter().filter(|j| new_ring.owner(&analyze_key(&j.app)) == joiner_addr) {
        let warmed = jc.analyze(&moved.app, moved.variant).expect("moved key via the joiner");
        assert!(warmed.ok && warmed.cached, "{moved}: the joiner warms its new keys");
        let bytes = warmed.result.unwrap().compact();
        assert_eq!(bytes, reference_body(&reference, moved), "{moved}: moved bytes identical");
    }
    let status = jc.status().expect("status").into_result().expect("ok");
    let cluster = status.field("cluster").unwrap();
    assert!(cluster.field("peer_warm_hits").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(cluster.field("replicated_in").unwrap().as_u64().unwrap(), 0, "no body pushed");

    // Epoch-tagged peer traffic is the anti-entropy channel: shard 1
    // took no part in the join, but one forwarded frame carrying the
    // joiner's epoch makes it refresh its roster from the sender.
    let joiner_epoch = view.field("epoch").unwrap().as_u64().unwrap();
    let mut stream = TcpStream::connect(addrs[1].as_str()).expect("connect shard 1");
    let frame = format!(
        "{{\"op\":\"analyze\",\"app\":\"rodinia/hotspot\",\"variant\":0,\"schema\":2,\
         \"fwd\":true,\"epoch\":{joiner_epoch},\"from\":\"{joiner_addr}\"}}\n"
    );
    stream.write_all(frame.as_bytes()).expect("epoch-tagged forward");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("answer");
    assert!(Json::parse(&line).expect("frame JSON").field("ok").unwrap().as_bool().unwrap());
    let mut client1 = ServeClient::connect(addrs[1].as_str()).expect("connect shard 1");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let view = client1.request(&Request::RingStatus).expect("ring").into_result().expect("ok");
        if view.field("members").unwrap().as_array().unwrap().len() == 3 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "shard 1 never refreshed its roster");
        std::thread::sleep(Duration::from_millis(50));
    }

    joiner.shutdown();
    joiner.join();
    for handle in handles {
        handle.shutdown();
        handle.join();
    }
}

/// A forwarded frame from a sender whose roster epoch is behind gets
/// bounced with the receiver's fresh roster — never answered by a
/// non-owner — while a current-epoch forward is answered in place.
#[test]
fn stale_epoch_forwards_bounce_with_the_fresh_roster() {
    let (handles, addrs) = test_cluster(2);
    let mut stream = TcpStream::connect(addrs[0].as_str()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let stale = "{\"op\":\"analyze\",\"app\":\"rodinia/hotspot\",\"variant\":0,\"schema\":2,\
                 \"fwd\":true,\"epoch\":0,\"from\":\"127.0.0.1:9\"}\n";
    stream.write_all(stale.as_bytes()).expect("stale forward");
    let mut line = String::new();
    reader.read_line(&mut line).expect("bounce");
    let doc = Json::parse(&line).expect("frame JSON");
    assert!(!doc.field("ok").unwrap().as_bool().unwrap(), "stale forward is refused");
    assert!(doc.field("stale_epoch").unwrap().as_bool().unwrap());
    let ring = doc.field("ring").unwrap();
    assert_eq!(ring.field("epoch").unwrap().as_u64().unwrap(), 1, "bootstrap epoch");
    assert_eq!(ring.field("members").unwrap().as_array().unwrap().len(), 2, "full fresh roster");

    // The same frame at the current epoch is answered in place.
    let current = "{\"op\":\"analyze\",\"app\":\"rodinia/hotspot\",\"variant\":0,\"schema\":2,\
                   \"fwd\":true,\"epoch\":1,\"from\":\"127.0.0.1:9\"}\n";
    stream.write_all(current.as_bytes()).expect("current forward");
    let mut line = String::new();
    reader.read_line(&mut line).expect("answer");
    let doc = Json::parse(&line).expect("frame JSON");
    assert!(doc.field("ok").unwrap().as_bool().unwrap(), "current-epoch forward answered");
    assert!(doc.field("result").is_ok());

    let mut client = ServeClient::connect(addrs[0].as_str()).expect("connect");
    let status = client.status().expect("status").into_result().expect("ok");
    let membership = status.field("cluster").unwrap().field("membership").unwrap();
    assert!(membership.field("stale_rejected").unwrap().as_u64().unwrap() >= 1, "bounce counted");

    for handle in handles {
        handle.shutdown();
        handle.join();
    }
}

/// Owner-down degradation: with the heaviest-owning shard killed (no
/// leave, no drain), every answer through a survivor still matches
/// `run_one` — each dead forward is one failed attempt, then a counted
/// local fallback — and the dead peer's breaker trips, fast-fails,
/// and is probed by the background heartbeat.
#[test]
fn owner_down_falls_back_locally_and_trips_the_breaker() {
    let clock = Clock::manual();
    let (mut handles, addrs) = test_cluster_with(3, |_| on_clock(&clock));
    let reference = Session::test();
    let jobs = reference.jobs_for_all_apps();

    // Kill the shard that owns the most keys, so the wave is guaranteed
    // to hit the corpse several times.
    let dead_idx = heaviest_owner(&addrs, &jobs);
    let dead = handles.remove(dead_idx);
    dead.shutdown();
    dead.join();

    let live = &addrs[(dead_idx + 1) % addrs.len()];
    let mut client = ServeClient::connect(live.as_str()).expect("connect survivor");
    for job in &jobs {
        let r = client.analyze(&job.app, job.variant).expect("degraded wave");
        assert!(r.ok, "{}: {:?}", job, r.error);
        assert_eq!(
            r.result.unwrap().compact(),
            reference_body(&reference, job),
            "{job}: owner-down answer still byte-identical"
        );
    }

    let status = client.status().expect("status").into_result().expect("ok");
    let cluster = status.field("cluster").unwrap();
    assert!(cluster.field("forward_failures").unwrap().as_u64().unwrap() >= 1);
    assert!(breaker(&status, "trips") >= 1, "dead peer's breaker tripped");
    assert!(breaker(&status, "fast_fails") >= 1, "post-trip calls fast-failed");

    // The background heartbeat probes the tripped peer once its
    // cooldown elapses — visible without any client traffic.
    let probes = breaker(&status, "probes");
    clock.advance(PEER_TRIP_COOLDOWN.max(HEARTBEAT_INTERVAL));
    wake_chores(live, &addrs[(dead_idx + 2) % addrs.len()]);
    wait_for_status(live.as_str(), "a heartbeat probe", |s| breaker(s, "probes") > probes);

    for handle in handles {
        handle.shutdown();
        handle.join();
    }
}

/// The liveness heartbeat discovers a dead peer with *no client
/// traffic at all*: kill shard 1 outright, and three heartbeat
/// intervals later shard 0's breaker for the corpse has tripped in the
/// background. The first real user call then fast-fails straight to a
/// byte-identical local computation instead of eating a connect
/// timeout. A counting fault hook rides along on shard 0: it sees every
/// heartbeat, so the peer path the heartbeats take is the one user
/// calls take.
#[test]
fn heartbeat_trips_a_dead_peers_breaker_before_any_user_call() {
    let clock = Clock::manual();
    let (hook, hooked) = count_calls(PeerOp::Heartbeat, |_| None);
    let (mut handles, addrs) = test_cluster_with(2, |i| Seams {
        clock: clock.clone(),
        peer_fault: (i == 0).then(|| hook.clone()),
        ..Seams::default()
    });

    // Kill shard 1 with no leave and no drain — a corpse, not a
    // departure.
    let dead = handles.remove(1);
    dead.shutdown();
    dead.join();

    // Only the chore thread talks to the corpse: status is answered
    // inline and never touches the peer path. Each heartbeat interval
    // on the clock is one failed heartbeat; the third trips the
    // breaker, which stays open (the clock stops short of its
    // cooldown). No live member is left to stamp a wake-up from, so the
    // chore thread's own tick finds each heartbeat due.
    for round in 1..=3 {
        clock.advance(HEARTBEAT_INTERVAL);
        wait_for_status(addrs[0].as_str(), "the next heartbeat", |s| heartbeats(s) == round);
    }
    let peer_of = |status: &Json| {
        let peers = status.field("cluster").unwrap().field("peers").unwrap();
        peers.field(addrs[1].as_str()).unwrap().clone()
    };
    wait_for_status(addrs[0].as_str(), "the trip", |s| {
        peer_of(s).field("trips").unwrap().as_u64().unwrap() == 1
    });
    let mut client = ServeClient::connect(addrs[0].as_str()).expect("connect shard 0");
    let status = client.status().expect("status").into_result().expect("ok");
    let cluster = status.field("cluster").unwrap();
    let peer = peer_of(&status);
    assert_eq!(peer.field("state").unwrap().as_str().unwrap(), "tripped");
    assert_eq!(peer.field("failures").unwrap().as_u64().unwrap(), 3, "three heartbeats, no more");
    assert_eq!(hooked.load(Ordering::SeqCst), 3, "the hook saw every heartbeat");
    assert!(cluster.get("faults").is_none(), "status carries no fault-plan block");

    // The FIRST user call that would forward to the dead member finds
    // the breaker already open: it fast-fails and computes locally.
    let reference = Session::test();
    let ring = Ring::new(addrs.iter().cloned());
    let job = reference
        .jobs_for_all_apps()
        .into_iter()
        .find(|j| ring.owner(&analyze_key(&j.app)) == addrs[1])
        .expect("some app hashes to shard 1");
    let r = client.analyze(&job.app, job.variant).expect("degraded call");
    assert!(r.ok, "{:?}", r.error);
    assert!(!r.cached, "the fallback computes locally");
    assert_eq!(r.result.unwrap().compact(), reference_body(&reference, &job));
    let status = client.status().expect("status").into_result().expect("ok");
    assert!(breaker(&status, "fast_fails") >= 1, "the user call never waited on the dead peer");

    for handle in handles {
        handle.shutdown();
        handle.join();
    }
}

/// A fault hook scripts the peer path: denying shard 0's first two
/// forwards kills exactly those (each falling back to a byte-identical
/// local compute) and the third sails through — the same way on every
/// run, however the background calls interleave.
#[test]
fn a_seeded_fault_plan_scripts_forward_failures_deterministically() {
    let (hook, forwards) = count_calls(PeerOp::Forward, |n| (n < 2).then_some(FaultAction::Deny));
    let (handles, addrs) = test_cluster_with(2, |i| Seams {
        peer_fault: (i == 0).then(|| hook.clone()),
        ..Seams::default()
    });
    let reference = Session::test();
    let ring = Ring::new(addrs.iter().cloned());
    let remote: Vec<AnalysisJob> = reference
        .jobs_for_all_apps()
        .into_iter()
        .filter(|j| ring.owner(&analyze_key(&j.app)) == addrs[1])
        .collect();
    assert!(remote.len() >= 3, "several apps hash to shard 1");

    let mut client = ServeClient::connect(addrs[0].as_str()).expect("connect shard 0");
    for job in &remote[..2] {
        let r = client.analyze(&job.app, job.variant).expect("denied forward");
        assert!(r.ok, "{:?}", r.error);
        assert!(!r.cached, "the fallback computes locally");
        assert_eq!(r.result.unwrap().compact(), reference_body(&reference, job));
    }
    assert_eq!(forwards.load(Ordering::SeqCst), 2, "one hooked call per denied forward");
    let status = client.status().expect("status").into_result().expect("ok");
    let cluster = status.field("cluster").unwrap();
    assert!(cluster.field("forward_failures").unwrap().as_u64().unwrap() >= 2);
    assert!(cluster.get("faults").is_none(), "status carries no fault-plan block");

    // The window is spent: the next remote key forwards normally.
    let job = &remote[2];
    let r = client.analyze(&job.app, job.variant).expect("healthy forward");
    assert!(r.ok, "{:?}", r.error);
    assert_eq!(r.result.unwrap().compact(), reference_body(&reference, job));
    assert_eq!(forwards.load(Ordering::SeqCst), 3);
    let status = client.status().expect("status").into_result().expect("ok");
    let cluster = status.field("cluster").unwrap();
    assert_eq!(cluster.field("forwards_out").unwrap().as_u64().unwrap(), 3);
    assert_eq!(cluster.field("forward_failures").unwrap().as_u64().unwrap(), 2);

    for handle in handles {
        handle.shutdown();
        handle.join();
    }
}

/// A steady stream of roster refreshes cannot starve the liveness
/// pass: while refreshes arrive faster than the chore thread's tick (so
/// its queue never times out), a heartbeat still runs once one is due.
#[test]
fn queued_refreshes_cannot_starve_the_heartbeat() {
    let clock = Clock::manual();
    let (handles, addrs) = test_cluster_with(2, |_| on_clock(&clock));
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Bounded, so a failed assertion below cannot hang the scope.
            let deadline = std::time::Instant::now() + Duration::from_secs(15);
            while !stop.load(Ordering::SeqCst) && std::time::Instant::now() < deadline {
                wake_chores(&addrs[0], &addrs[1]);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        wait_for_status(addrs[0].as_str(), "a queued refresh", |s| {
            s.field("cluster").unwrap().field("replicated_in").unwrap().as_u64().unwrap() >= 3
        });
        assert_eq!(heartbeats(&status_of(&addrs[0])), 0, "nothing is due yet");
        clock.advance(HEARTBEAT_INTERVAL);
        wait_for_status(addrs[0].as_str(), "a heartbeat", |s| heartbeats(s) >= 1);
        stop.store(true, Ordering::SeqCst);
    });
    for handle in handles {
        handle.shutdown();
        handle.join();
    }
}

/// A frame's `from` is a claim, not a member: a plain client's
/// `store_put` stamped with a newer epoch and an address off the roster
/// queues no refresh, so the daemon never dials that address and its
/// peer table never lists it, however often the frame comes.
#[test]
fn an_off_roster_from_is_never_dialed() {
    let clock = Clock::manual();
    let (handles, addrs) = test_cluster_with(2, |_| on_clock(&clock));
    let meta = PeerMeta { epoch: Some(999), from: Some(NOWHERE.to_string()) };
    let mut client = ServeClient::connect(addrs[0].as_str()).expect("connect shard 0");
    for i in 0..3 {
        let body = "{}".to_string();
        let poke = Request::StorePut { key: format!("poke{i}"), body, meta: meta.clone() };
        assert!(client.request(&poke).expect("store_put").ok);
    }
    // The pokes were queued (if at all) before the heartbeat fell due,
    // and the chore thread takes its queue in order.
    clock.advance(HEARTBEAT_INTERVAL);
    wait_for_status(addrs[0].as_str(), "a heartbeat", |s| heartbeats(s) >= 1);
    let status = status_of(&addrs[0]);
    let peers = status.field("cluster").unwrap().field("peers").unwrap();
    assert!(peers.get(NOWHERE).is_none(), "{NOWHERE} was dialed: {}", peers.compact());
    assert!(peers.get(addrs[1].as_str()).is_some(), "the heartbeat reached the live member");
    assert_eq!(breaker(&status, "trips"), 0, "no breaker tripped");
    for handle in handles {
        handle.shutdown();
        handle.join();
    }
}

/// `leave` drains a shard out of the ring: the survivors' rosters
/// shrink (down to a 1-member ring), each of its keys passes to the
/// survivor already holding the key's replica, and the drained daemon
/// keeps serving — it just owns nothing.
#[test]
fn leave_drains_the_shard_into_the_survivors() {
    let (handles, addrs) = test_cluster(2);
    let reference = Session::test();
    let ring = Ring::new(addrs.iter().cloned());
    let (job, key) = reference
        .jobs_for_all_apps()
        .into_iter()
        .map(|j| {
            let key = analyze_key(&j.app);
            (j, key)
        })
        .find(|(_, key)| ring.owner(key) == addrs[1])
        .expect("some app hashes to shard 1");
    let expected = reference_body(&reference, &job);

    let mut client1 = ServeClient::connect(addrs[1].as_str()).expect("connect shard 1");
    let computed = client1.analyze(&job.app, job.variant).expect("compute on the owner");
    assert!(computed.ok && !computed.cached);
    // The owner pushed the body to the key's replica holder — in a
    // 2-member ring, shard 0 — when it computed it.
    assert_eq!(ring.replica(&key), Some(addrs[0].as_str()));
    wait_until_replicated(&addrs, 1);

    let drained = client1
        .request(&Request::Leave { addr: None, meta: PeerMeta::default() })
        .expect("leave")
        .into_result()
        .expect("drain ok");
    assert!(drained.field("left").unwrap().as_bool().unwrap());
    assert!(drained.field("epoch").unwrap().as_u64().unwrap() >= 2);

    // The survivor heard the departure announce: a 1-member ring, and
    // the drained shard's entry in its store.
    let mut client0 = ServeClient::connect(addrs[0].as_str()).expect("connect shard 0");
    let view = client0.request(&Request::RingStatus).expect("ring").into_result().expect("ok");
    assert_eq!(view.field("members").unwrap().as_array().unwrap().len(), 1);
    assert!(view.field("epoch").unwrap().as_u64().unwrap() >= 2);
    let replica = wait_for_replica(&addrs[0], &key, Duration::from_secs(5))
        .expect("drained entry reached the survivor");
    assert_eq!(replica, expected, "drained bytes identical");

    // The drained shard still answers — from its store or by
    // forwarding to the survivor — and reports its state.
    let view = client1.request(&Request::RingStatus).expect("ring").into_result().expect("ok");
    assert!(view.field("draining").unwrap().as_bool().unwrap());
    let again = client1.analyze(&job.app, job.variant).expect("serve while drained");
    assert!(again.ok && again.cached);

    for handle in handles {
        handle.shutdown();
        handle.join();
    }
}

/// The acceptance chaos run: a fault hook delays shard 0's first
/// forwards, a shard is killed mid-sweep and evicted, a replacement
/// joins the live ring, and every survivor still answers all 21 apps
/// with bytes identical to `run_one` — with the churn (epoch bumps,
/// failed forwards) visible in `status`.
#[test]
fn chaos_membership_churn_keeps_bytes_identical() {
    let (hook, delayed) = count_calls(PeerOp::Forward, |n| {
        if n < 8 {
            std::thread::sleep(Duration::from_millis(2));
        }
        None
    });
    let (mut handles, addrs) = test_cluster_with(3, |i| Seams {
        peer_fault: (i == 0).then(|| hook.clone()),
        ..Seams::default()
    });
    let reference = Session::test();
    let jobs = reference.jobs_for_all_apps();
    let expected: Vec<String> = jobs.iter().map(|j| reference_body(&reference, j)).collect();
    let old_ring = Ring::new(addrs.iter().cloned());

    // Wave 1 through shard 0, cluster healthy (the hook slows its
    // forwards without failing them).
    let mut client0 = ServeClient::connect(addrs[0].as_str()).expect("connect shard 0");
    for (job, want) in jobs.iter().zip(&expected) {
        let r = client0.analyze(&job.app, job.variant).expect("wave 1");
        assert!(r.ok, "{}: {:?}", job, r.error);
        assert_eq!(&r.result.unwrap().compact(), want, "{job}: wave 1 bytes");
    }

    // A shard dies mid-sweep — no leave, no drain, store and all. Of
    // the two non-fault-planted shards, kill the one owning more keys,
    // so some key is guaranteed lost with the corpse.
    let owned =
        |addr: &str| jobs.iter().filter(|j| old_ring.owner(&analyze_key(&j.app)) == addr).count();
    let dead_idx = if owned(&addrs[1]) > owned(&addrs[2]) { 1 } else { 2 };
    let dead_addr = addrs[dead_idx].clone();
    let survivors: Vec<String> = addrs.iter().filter(|a| **a != dead_addr).cloned().collect();
    let dead = handles.remove(dead_idx);
    dead.shutdown();
    dead.join();

    // A key the corpse owned, asked through the survivor that does NOT
    // hold the key's replica: the forward fails, then falls back to a
    // local compute — and the bytes do not change. (The
    // key's replica holder would answer from its store instead, which
    // is the other designed degraded path.)
    let (lost_idx, lost_job) = jobs
        .iter()
        .enumerate()
        .find(|(_, j)| old_ring.owner(&analyze_key(&j.app)) == dead_addr)
        .expect("some app hashed to the dead shard");
    let replica_holder = old_ring.replica(&analyze_key(&lost_job.app)).expect("3-member ring");
    let degraded_addr =
        survivors.iter().find(|a| *a != replica_holder).expect("a replica-free survivor").clone();
    let mut degraded = ServeClient::connect(degraded_addr.as_str()).expect("connect survivor");
    let r = degraded.analyze(&lost_job.app, lost_job.variant).expect("degraded analyze");
    assert!(r.ok, "{:?}", r.error);
    assert_eq!(r.result.unwrap().compact(), expected[lost_idx], "fallback bytes identical");
    let status = degraded.status().expect("status").into_result().expect("ok");
    assert!(
        status.field("cluster").unwrap().field("forward_failures").unwrap().as_u64().unwrap() >= 1,
        "the dead owner cost a failed forward"
    );

    // Evict the corpse, then a replacement joins through shard 0.
    let evicted = client0
        .request(&Request::Leave { addr: Some(dead_addr.clone()), meta: PeerMeta::default() })
        .expect("leave")
        .into_result()
        .expect("evict ok");
    assert!(evicted.field("removed").unwrap().as_bool().unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind replacement");
    let new_addr = listener.local_addr().expect("addr").to_string();
    let config =
        ServerConfig { workers: 2, join: Some(addrs[0].clone()), ..ServerConfig::ephemeral() };
    handles.push(serve_on(Arc::new(Session::test()), listener, config).expect("replacement joins"));

    // Wave 2 through every survivor: the shard that saw the churn, the
    // shard that must catch up lazily, and the brand-new member.
    for addr in survivors.iter().cloned().chain(std::iter::once(new_addr.clone())) {
        let mut client = ServeClient::connect(addr.as_str()).expect("connect survivor");
        for (job, want) in jobs.iter().zip(&expected) {
            let r = client.analyze(&job.app, job.variant).expect("wave 2");
            assert!(r.ok, "{}: {:?}", job, r.error);
            assert_eq!(&r.result.unwrap().compact(), want, "{job}: wave 2 bytes via {addr}");
        }
    }

    // The churn is visible in shard 0's status.
    let status = client0.status().expect("status").into_result().expect("ok");
    let cluster = status.field("cluster").unwrap();
    assert!(cluster.field("epoch").unwrap().as_u64().unwrap() >= 3, "eviction + join epochs");
    let members = cluster.field("members").unwrap().as_array().unwrap();
    assert_eq!(members.len(), 3);
    assert!(members.iter().any(|m| m.as_str().unwrap() == new_addr));
    assert!(members.iter().all(|m| m.as_str().unwrap() != dead_addr));
    assert!(delayed.load(Ordering::SeqCst) >= 1, "the hook slowed shard 0's forwards");

    for handle in handles {
        handle.shutdown();
        handle.join();
    }
}

// ---------------------------------------------------------------------
// Where a body lives: a membership change recomputes nothing
// ---------------------------------------------------------------------

/// A settled 3-shard cluster holding all 47 registry variants. Wave 1
/// went through shard 0, so each body was computed by its key's owner
/// and pushed once, to the key's replica holder.
struct Settled {
    handles: Vec<gpa::serve::ServerHandle>,
    addrs: Vec<String>,
    jobs: Vec<AnalysisJob>,
    wave1: Vec<String>,
}

fn settled_cluster() -> Settled {
    let (handles, addrs) = test_cluster(3);
    let jobs = Session::test().jobs_for_all_variants();
    assert_eq!(jobs.len(), 47);
    let mut client = ServeClient::connect(addrs[0].as_str()).expect("connect shard 0");
    let wave1 = jobs
        .iter()
        .map(|job| {
            let r = client.analyze(&job.app, job.variant).expect("wave 1");
            assert!(r.ok && !r.cached, "{job}: {:?}", r.error);
            r.result.unwrap().compact()
        })
        .collect();
    wait_until_replicated(&addrs, jobs.len() as u64);
    Settled { handles, addrs, jobs, wave1 }
}

impl Settled {
    /// Once every shard at `live` lists exactly `live`, asks every
    /// variant through `via`: each answer must be `cached` — nothing is
    /// recomputed — and byte-identical to wave 1.
    fn second_wave(&self, live: &[String], via: &str) {
        wait_for_roster(live);
        let mut client = ServeClient::connect(via).expect("connect");
        for (job, want) in self.jobs.iter().zip(&self.wave1) {
            let r = client.analyze(&job.app, job.variant).expect("wave 2");
            assert!(r.ok, "{job}: {:?}", r.error);
            assert!(r.cached, "{job}: recomputed after the membership change");
            assert_eq!(&r.result.unwrap().compact(), want, "{job}: wave 2 bytes");
        }
    }

    fn shut_down(self) {
        for handle in self.handles {
            handle.shutdown();
            handle.join();
        }
    }
}

/// The heaviest owner dies and is evicted: each of its keys passes to
/// the member already holding the key's replica, so nothing is pushed,
/// pulled or recomputed.
#[test]
fn a_killed_owner_costs_no_recompute_and_no_body_shipped() {
    let mut settled = settled_cluster();
    let dead_idx = heaviest_owner(&settled.addrs, &settled.jobs);
    let dead_addr = settled.addrs.remove(dead_idx);
    let live = settled.addrs.clone();
    let (pushed, pulled) =
        (cluster_sum(&live, "replicated_in"), cluster_sum(&live, "peer_warm_hits"));
    let dead = settled.handles.remove(dead_idx);
    dead.shutdown();
    dead.join();
    let mut client = ServeClient::connect(live[0].as_str()).expect("connect survivor");
    let evicted = client
        .request(&Request::Leave { addr: Some(dead_addr), meta: PeerMeta::default() })
        .expect("leave")
        .into_result()
        .expect("evict ok");
    assert!(evicted.field("removed").unwrap().as_bool().unwrap());

    settled.second_wave(&live, &live[1]);
    assert_eq!(cluster_sum(&live, "replicated_in"), pushed, "no body was pushed");
    assert_eq!(cluster_sum(&live, "peer_warm_hits"), pulled, "no body was pulled");
    settled.shut_down();
}

/// The heaviest owner leaves on its own: the same hand-over as a kill,
/// with the announce doing the eviction.
#[test]
fn a_self_leave_costs_no_recompute_and_no_body_shipped() {
    let settled = settled_cluster();
    let leaver = heaviest_owner(&settled.addrs, &settled.jobs);
    let live: Vec<String> = settled
        .addrs
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != leaver)
        .map(|(_, a)| a.clone())
        .collect();
    let (pushed, pulled) =
        (cluster_sum(&live, "replicated_in"), cluster_sum(&live, "peer_warm_hits"));
    let mut client = ServeClient::connect(settled.addrs[leaver].as_str()).expect("connect leaver");
    let left = client
        .request(&Request::Leave { addr: None, meta: PeerMeta::default() })
        .expect("leave")
        .into_result()
        .expect("drain ok");
    assert!(left.field("left").unwrap().as_bool().unwrap());

    settled.second_wave(&live, &live[0]);
    assert_eq!(cluster_sum(&live, "replicated_in"), pushed, "no body was pushed");
    assert_eq!(cluster_sum(&live, "peer_warm_hits"), pulled, "no body was pulled");
    settled.shut_down();
}

/// The heaviest owner restarts in place with a cold store: the ring is
/// unchanged, so its owned misses warm from their replica holders and
/// nothing is pushed.
#[test]
fn a_restart_in_place_costs_no_recompute_and_no_body_shipped() {
    let mut settled = settled_cluster();
    let idx = heaviest_owner(&settled.addrs, &settled.jobs);
    let addr = settled.addrs[idx].clone();
    let others: Vec<String> = settled.addrs.iter().filter(|a| **a != addr).cloned().collect();
    let pushed = cluster_sum(&others, "replicated_in");
    let old = settled.handles.remove(idx);
    old.shutdown();
    old.join();
    let config =
        ServerConfig { workers: 2, reactors: 2, peers: others, ..ServerConfig::ephemeral() };
    let restarted = serve_on(Arc::new(Session::test()), rebind(&addr), config).expect("restarts");
    settled.handles.push(restarted);

    settled.second_wave(&settled.addrs, &addr);
    assert_eq!(cluster_sum(&settled.addrs, "replicated_in"), pushed, "no body was pushed");
    settled.shut_down();
}

/// A 4th shard joins: for every key it takes, the old owner is now the
/// key's replica holder, so the joiner's owned misses warm from there
/// and nothing is pushed.
#[test]
fn a_join_costs_no_recompute_and_no_body_shipped() {
    let mut settled = settled_cluster();
    let pushed = cluster_sum(&settled.addrs, "replicated_in");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind joiner");
    let joiner = listener.local_addr().expect("addr").to_string();
    let config = ServerConfig {
        workers: 2,
        reactors: 2,
        join: Some(settled.addrs[0].clone()),
        ..ServerConfig::ephemeral()
    };
    settled.handles.push(serve_on(Arc::new(Session::test()), listener, config).expect("joins"));
    settled.addrs.push(joiner.clone());

    settled.second_wave(&settled.addrs, &joiner);
    assert_eq!(cluster_sum(&settled.addrs, "replicated_in"), pushed, "no body was pushed");
    settled.shut_down();
}

/// The multi-reactor split changes no answer: with every shard running
/// two reactors (round-robin accept), whole-profile uploads from
/// connections landing on different reactors answer byte-identical
/// bodies, and membership ops (`join`/`leave`/`ring_status`) behave
/// identically no matter which reactor answers.
#[test]
fn uploads_and_membership_ops_work_across_reactors() {
    let clock = Clock::manual();
    let (handles, addrs) = test_cluster_with(2, |_| on_clock(&clock));
    for handle in &handles {
        assert_eq!(handle.reactors(), 2, "cluster shards run two reactors");
        assert_eq!(handle.accept_path(), "round_robin");
    }
    let reference = Session::test();
    let job = AnalysisJob::new("rodinia/hotspot", 0);
    let (_, profile, _) = reference.profile_one(&job).expect("local profiling");
    let doc = Json::parse(&profile.to_json()).expect("profile serializes");
    let report = reference.advise_profile(&job, &profile).expect("local advising");
    let expected = protocol::profile_body(&job, &profile, &report, 1).compact();

    // Four fresh connections, alternating shards: the round-robin
    // acceptor parks consecutive sockets on different reactors.
    for i in 0..4 {
        let mut client = ServeClient::connect(addrs[i % 2].as_str()).expect("connect");
        let r = client.analyze_profile(&job.app, job.variant, &doc).expect("upload");
        assert!(r.ok, "upload {i}: {:?}", r.error);
        assert_eq!(r.result.unwrap().compact(), expected, "upload {i} bytes identical");
    }

    // ring_status from fresh connections agrees on every shard.
    for addr in &addrs {
        let mut client = ServeClient::connect(addr.as_str()).expect("connect");
        let view = client.request(&Request::RingStatus).expect("ring").into_result().expect("ok");
        assert_eq!(view.field("members").unwrap().as_array().unwrap().len(), 2);
    }

    // A third shard (itself two reactors) joins via shard 0; both
    // incumbents converge on the 3-member roster, shard 1 by its next
    // heartbeat to shard 0.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind joiner");
    let joiner_addr = listener.local_addr().expect("addr").to_string();
    let config = ServerConfig {
        workers: 2,
        reactors: 2,
        join: Some(addrs[0].clone()),
        ..ServerConfig::ephemeral()
    };
    let joiner = serve_on(Arc::new(Session::test()), listener, config).expect("joiner starts");
    assert_eq!(joiner.reactors(), 2);
    clock.advance(HEARTBEAT_INTERVAL);
    wake_chores(&addrs[1], &addrs[0]);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    for addr in &addrs {
        let mut client = ServeClient::connect(addr.as_str()).expect("connect");
        loop {
            let view =
                client.request(&Request::RingStatus).expect("ring").into_result().expect("ok");
            if view.field("members").unwrap().as_array().unwrap().len() == 3 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "{addr} never saw the joiner");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    // The joiner leaves again (drain through whichever reactor its
    // connection lands on); the incumbents shrink back to two members.
    let mut jc = ServeClient::connect(joiner_addr.as_str()).expect("connect joiner");
    let drained = jc
        .request(&Request::Leave { addr: None, meta: PeerMeta::default() })
        .expect("leave")
        .into_result()
        .expect("drain ok");
    assert!(drained.field("left").unwrap().as_bool().unwrap());
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    for addr in &addrs {
        let mut client = ServeClient::connect(addr.as_str()).expect("connect");
        loop {
            let view =
                client.request(&Request::RingStatus).expect("ring").into_result().expect("ok");
            let members = view.field("members").unwrap().as_array().unwrap();
            if members.len() == 2 && members.iter().all(|m| m.as_str().unwrap() != joiner_addr) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "{addr} never saw the leave");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    joiner.shutdown();
    joiner.join();
    for handle in handles {
        handle.shutdown();
        handle.join();
    }
}
