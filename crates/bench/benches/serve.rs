//! Benches the daemon's multi-client throughput: 8 concurrent clients
//! sweeping the 21-app registry against a live `gpa-serve` on an
//! ephemeral port, versus the serial in-process baseline.
//!
//! Two daemon variants are measured: cold-ish (first pass computes,
//! later passes hit the report store — the steady state of an iterative
//! profile/advise workflow) and an explicit all-hits pass, which
//! isolates wire + store overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use gpa_pipeline::{AnalysisJob, Session};
use gpa_serve::{serve, serve_on, ServeClient, ServerConfig};
use std::sync::Arc;

const CLIENTS: usize = 8;

/// The swarm concurrency level: enough connections that accept and
/// frame handling, not the worker pool, are what is measured.
const SWARM: usize = 64;

fn sweep(addr: std::net::SocketAddr, jobs: &[AnalysisJob]) {
    std::thread::scope(|scope| {
        for client_idx in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                for (i, job) in jobs.iter().enumerate() {
                    if i % CLIENTS != client_idx {
                        continue;
                    }
                    let response = client.analyze(&job.app, job.variant).expect("analyze");
                    assert!(response.ok, "{}: {:?}", job, response.error);
                }
            });
        }
    });
}

fn bench_serve_throughput(c: &mut Criterion) {
    let session = Arc::new(Session::test());
    let jobs = session.jobs_for_all_apps();

    // Serial in-process baseline (no daemon, no cache reuse between
    // iterations beyond the session's artifact cache).
    let baseline = Arc::clone(&session);
    c.bench_function("serve/serial_in_process_21_apps", |b| {
        b.iter(|| baseline.run_batch_serial(&jobs))
    });

    let config = ServerConfig { workers: CLIENTS, queue: 64, ..ServerConfig::ephemeral() };
    let handle = serve(session, config).expect("daemon starts");
    let addr = handle.local_addr();
    println!("serve bench: daemon on {addr}, {CLIENTS} clients over {} jobs", jobs.len());

    // First iteration computes every report; the rest are store hits —
    // i.e. the daemon's steady-state throughput for repeat traffic.
    c.bench_function("serve/8_clients_21_apps", |b| b.iter(|| sweep(addr, &jobs)));

    // All-hits: everything is warm by now, so this isolates protocol
    // and store overhead per request.
    sweep(addr, &jobs);
    c.bench_function("serve/8_clients_21_apps_warm", |b| b.iter(|| sweep(addr, &jobs)));

    handle.shutdown();
    handle.join();
}

/// Client threads driving the swarm. Few on purpose: with one thread
/// per *connection* on the client too, the bench mostly measures its
/// own 64 threads thrashing the scheduler, identically for both
/// engines. A handful of drivers multiplexing 64 sockets keeps the
/// client cheap so the measured difference is the server's.
const DRIVERS: usize = 4;

/// One swarm pass: the 21-app repeat sweep issued by `SWARM` concurrent
/// client slots that dial a **fresh connection per request** — the
/// traffic shape of real repeat users (`gpa request` connects, asks,
/// disconnects). Per round, each driver opens its share of the 64
/// connections, writes one frame on each, then reads the responses
/// back, so all 64 are in flight together. Connection churn is exactly
/// what the engines disagree on: thread-per-conn pays a thread
/// spawn/join and registry bookkeeping per connection, the reactor an
/// epoll registration on its one thread.
fn swarm_sweep(addr: std::net::SocketAddr, frames: &[String]) {
    use std::io::{BufRead, BufReader, Write};
    std::thread::scope(|scope| {
        for _ in 0..DRIVERS {
            scope.spawn(move || {
                let mut line = String::new();
                for frame in frames {
                    let mut conns = Vec::with_capacity(SWARM / DRIVERS);
                    for _ in 0..SWARM / DRIVERS {
                        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
                        stream.set_nodelay(true).expect("nodelay");
                        stream.write_all(frame.as_bytes()).expect("request frame");
                        conns.push(BufReader::new(stream));
                    }
                    for reader in &mut conns {
                        line.clear();
                        reader.read_line(&mut line).expect("response");
                        assert!(line.starts_with("{\"ok\":true"), "{line}");
                    }
                }
            });
        }
    });
}

/// 64 concurrent connections of 21-app repeat (warm-store) traffic
/// against a default-config daemon. Warm traffic never touches the
/// worker pool, so this isolates connection and frame handling. (The
/// row name is the one BENCH_6/BENCH_10 recorded.)
fn bench_swarm(c: &mut Criterion) {
    let session = Arc::new(Session::test());
    let jobs = session.jobs_for_all_apps();
    let config = ServerConfig { workers: CLIENTS, queue: 64, ..ServerConfig::ephemeral() };
    let handle = serve(session, config).expect("daemon starts");
    let addr = handle.local_addr();
    // Warm the store so every benched request is a cache hit.
    sweep(addr, &jobs);
    let frames: Vec<String> = jobs
        .iter()
        .map(|job| {
            let request = gpa_serve::Request::Analyze {
                job: job.clone(),
                options: gpa_serve::WireOptions::default(),
            };
            format!("{}\n", request.to_wire())
        })
        .collect();
    c.bench_function("serve/64_clients_21_apps_warm_reactor", |b| {
        b.iter(|| swarm_sweep(addr, &frames))
    });
    handle.shutdown();
    handle.join();
}

/// One persistent-pipelined pass: `CLIENTS` long-lived connections,
/// each writing the whole sweep as one burst and reading the responses
/// back in order. No connection churn at all — this is the traffic
/// shape the per-reactor buffer pools and completion routing serve in
/// the steady state, and the regression guard for the 8-client
/// persistent rows.
fn pipelined_sweep(addr: std::net::SocketAddr, frames: &[String]) {
    use std::io::{BufRead, BufReader, Write};
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(move || {
                let mut stream = std::net::TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                let burst: String = frames.concat();
                stream.write_all(burst.as_bytes()).expect("pipelined burst");
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                for _ in frames {
                    line.clear();
                    reader.read_line(&mut line).expect("response");
                    assert!(line.starts_with("{\"ok\":true"), "{line}");
                }
            });
        }
    });
}

/// The multi-reactor scaling rows: the 64-connection dial-per-request
/// swarm and the 8-client persistent-pipelined sweep, each against a
/// warm store on 1, 2 and 4 reactors. On a multi-core host the swarm
/// rows are where reactor count pays (accept + frame handling spread
/// over cores); on a single-core CI container the expectation is
/// parity — the rewrite must not cost anything when there is nothing
/// to parallelize.
fn bench_reactor_scaling(c: &mut Criterion) {
    for reactors in [1usize, 2, 4] {
        let session = Arc::new(Session::test());
        let jobs = session.jobs_for_all_apps();
        let config =
            ServerConfig { workers: CLIENTS, queue: 64, reactors, ..ServerConfig::ephemeral() };
        let handle = serve(session, config).expect("daemon starts");
        let addr = handle.local_addr();
        println!(
            "serve bench: {} reactor(s) ({} accept) on {addr}",
            handle.reactors(),
            handle.accept_path()
        );
        // Warm the store so every benched request is a cache hit.
        sweep(addr, &jobs);
        let frames: Vec<String> = jobs
            .iter()
            .map(|job| {
                let request = gpa_serve::Request::Analyze {
                    job: job.clone(),
                    options: gpa_serve::WireOptions::default(),
                };
                format!("{}\n", request.to_wire())
            })
            .collect();
        c.bench_function(&format!("serve/swarm_64_clients_reactors_{reactors}"), |b| {
            b.iter(|| swarm_sweep(addr, &frames))
        });
        c.bench_function(&format!("serve/8_clients_pipelined_warm_reactors_{reactors}"), |b| {
            b.iter(|| pipelined_sweep(addr, &frames))
        });
        handle.shutdown();
        handle.join();
    }
}

/// The robustness row behind the failure-handling work: the same
/// 64-connection warm sweep, but against a 3-shard cluster that just
/// lost a member — no leave, no drain. The queried survivor burns one
/// budgeted retry per lost key on first ask, falls back to a counted
/// local compute, and serves repeat traffic for those keys from its own
/// store, so the measured steady state is "local hits plus forwards to
/// the one live peer". The healthy-cluster pass and the first degraded
/// pass (the retry burn) are timed and printed for the record.
fn bench_owner_down_swarm(c: &mut Criterion) {
    let listeners: Vec<std::net::TcpListener> =
        (0..3).map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind shard")).collect();
    let addrs: Vec<String> =
        listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
    let mut handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let peers =
                addrs.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, a)| a.clone()).collect();
            let config =
                ServerConfig { workers: CLIENTS, queue: 64, peers, ..ServerConfig::ephemeral() };
            serve_on(Arc::new(Session::test()), listener, config).expect("shard starts")
        })
        .collect();
    let session = Session::test();
    let jobs = session.jobs_for_all_apps();
    let addr = handles[0].local_addr();
    sweep(addr, &jobs); // warm every shard's slice of the store
    let frames: Vec<String> = jobs
        .iter()
        .map(|job| {
            let request = gpa_serve::Request::Analyze {
                job: job.clone(),
                options: gpa_serve::WireOptions::default(),
            };
            format!("{}\n", request.to_wire())
        })
        .collect();

    let healthy = std::time::Instant::now();
    swarm_sweep(addr, &frames);
    let healthy = healthy.elapsed();

    let dead = handles.remove(2);
    dead.shutdown();
    dead.join();

    let degraded = std::time::Instant::now();
    swarm_sweep(addr, &frames);
    let degraded = degraded.elapsed();
    println!(
        "serve bench: owner-down swarm — healthy pass {healthy:?}, \
         first degraded pass (retry burn + fallback computes) {degraded:?}"
    );

    c.bench_function("serve/swarm_64_clients_owner_down", |b| {
        b.iter(|| swarm_sweep(addr, &frames))
    });
    for handle in handles {
        handle.shutdown();
        handle.join();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serve_throughput, bench_swarm, bench_reactor_scaling,
        bench_owner_down_swarm
}
criterion_main!(benches);
