//! The `gpa` command-line tool.
//!
//! Mirrors the paper's workflow: GPA "is a command line tool that
//! automates profiling and analysis stages". Subcommands:
//!
//! ```text
//! gpa list                              enumerate built-in benchmark kernels
//! gpa analyze <app> [variant] [--json]  profile a kernel and print the advice report
//! gpa analyze --all [--json]            analyze all 21 apps in parallel, with a summary
//! gpa profile <app> [variant]           dump the PC-sampling profile as JSON
//! gpa asm <app> [variant]               print the kernel's assembly
//! gpa serve [flags]                     run the advisor daemon (see docs/protocol.md)
//! gpa request <op> [app] [variant]      issue one request to a running daemon
//! ```
//!
//! Flags are parsed strictly: an unknown `--flag` is a usage error, not
//! a positional argument. Under `analyze --json`, failures are reported
//! as machine-readable JSON on stdout (still with a nonzero exit code).

use gpa_core::{report, OptimizerCategory};
use gpa_json::Json;
use gpa_kernels::all_apps;
use gpa_pipeline::{AnalysisError, AnalysisJob, Session};
use gpa_serve::{
    serve, FaultPlan, PeerMeta, Request, ServeClient, ServerConfig, WireOptions, DEFAULT_ADDR,
    MAX_REPEAT,
};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: gpa <command> [args] [flags]\n\n  \
     list                                       list built-in kernels\n  \
     analyze <app> [variant] [--json]           profile + advise (default variant 0)\n  \
     analyze --all [--json]                     analyze every app in parallel, with summary\n          \
     [--top N] [--category C] [--min-speedup X] scope the advice request\n          \
     [--schema v1|v2]                           advice schema for --json output\n          \
     [--repeat N]                               merge N replayed profiling launches\n          \
     [--mem-model flat|hierarchy]               memory timing model (default flat)\n  \
     profile <app> [variant] [--repeat N]       dump the (merged) profile JSON\n           \
     [--out FILE]                               write it to FILE instead of stdout\n  \
     asm <app> [variant]                        print kernel assembly\n  \
     serve [--addr A] [--workers N] [--queue N] run the advisor daemon\n           \
     [--store N] [--persist DIR]\n           \
     [--reactors N]                             reactor threads (default: CPU count, capped at 8)\n           \
     [--peers A,B,..] [--advertise A]           shard with peer daemons (consistent hashing)\n           \
     [--join A]                                 join a running cluster member at startup\n           \
     [--faults SPEC]                            seeded peer fault injection (chaos testing)\n  \
     request analyze <app> [variant] [--addr A]          analyze on the daemon\n  \
     request analyze_profile <app> [variant] --profile F advise on a saved profile\n  \
     request status|shutdown [--addr A]                  daemon control\n  \
     request ring [--addr A]                             roster epoch and members\n  \
     request leave [ADDR] [--addr A]                     drain the daemon (or evict ADDR)\n          \
     request accepts --top/--category/--min-speedup/--schema/--mem-model too,\n          \
     and --repeat on analyze\n\n  \
     categories: stall-elimination, latency-hiding, parallel";

fn usage(msg: &str) -> ExitCode {
    if !msg.is_empty() {
        eprintln!("gpa: {msg}\n");
    }
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Every flag the tool understands, across all subcommands.
#[derive(Debug, Default)]
struct Flags {
    json: bool,
    all: bool,
    addr: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    store: Option<usize>,
    persist: Option<PathBuf>,
    profile: Option<PathBuf>,
    top: Option<usize>,
    category: Option<String>,
    min_speedup: Option<f64>,
    schema: Option<String>,
    repeat: Option<usize>,
    mem_model: Option<String>,
    out: Option<PathBuf>,
    peers: Option<String>,
    advertise: Option<String>,
    join: Option<String>,
    faults: Option<String>,
    reactors: Option<usize>,
}

fn take_value(
    name: &str,
    inline: Option<String>,
    rest: &mut std::slice::Iter<'_, String>,
) -> Result<String, String> {
    if let Some(v) = inline {
        return Ok(v);
    }
    rest.next().cloned().ok_or_else(|| format!("flag --{name} requires a value"))
}

fn take_usize(
    name: &str,
    inline: Option<String>,
    rest: &mut std::slice::Iter<'_, String>,
) -> Result<usize, String> {
    let v = take_value(name, inline, rest)?;
    v.parse().map_err(|_| format!("flag --{name} expects a number, got `{v}`"))
}

/// Splits the command line into positionals and known flags, rejecting
/// anything that looks like a flag but isn't one.
fn parse_cmdline(args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let mut flags = Flags::default();
    let mut positionals = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if let Some(body) = arg.strip_prefix("--") {
            let (name, inline) = match body.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (body, None),
            };
            match name {
                "json" | "all" => {
                    if inline.is_some() {
                        return Err(format!("flag --{name} takes no value"));
                    }
                    if name == "json" {
                        flags.json = true;
                    } else {
                        flags.all = true;
                    }
                }
                "addr" => flags.addr = Some(take_value(name, inline, &mut rest)?),
                "workers" => flags.workers = Some(take_usize(name, inline, &mut rest)?),
                "queue" => flags.queue = Some(take_usize(name, inline, &mut rest)?),
                "store" => flags.store = Some(take_usize(name, inline, &mut rest)?),
                "persist" => {
                    flags.persist = Some(PathBuf::from(take_value(name, inline, &mut rest)?));
                }
                "profile" => {
                    flags.profile = Some(PathBuf::from(take_value(name, inline, &mut rest)?));
                }
                "top" => flags.top = Some(take_usize(name, inline, &mut rest)?),
                "category" => flags.category = Some(take_value(name, inline, &mut rest)?),
                "min-speedup" => {
                    let v = take_value(name, inline, &mut rest)?;
                    flags.min_speedup = Some(
                        v.parse()
                            .map_err(|_| format!("flag --{name} expects a number, got `{v}`"))?,
                    );
                }
                "schema" => flags.schema = Some(take_value(name, inline, &mut rest)?),
                "repeat" => flags.repeat = Some(take_usize(name, inline, &mut rest)?),
                "mem-model" => flags.mem_model = Some(take_value(name, inline, &mut rest)?),
                "out" => flags.out = Some(PathBuf::from(take_value(name, inline, &mut rest)?)),
                "peers" => flags.peers = Some(take_value(name, inline, &mut rest)?),
                "advertise" => flags.advertise = Some(take_value(name, inline, &mut rest)?),
                "join" => flags.join = Some(take_value(name, inline, &mut rest)?),
                "faults" => flags.faults = Some(take_value(name, inline, &mut rest)?),
                "reactors" => flags.reactors = Some(take_usize(name, inline, &mut rest)?),
                _ => return Err(format!("unknown flag `{arg}` (see usage)")),
            }
        } else if arg.starts_with('-') && arg.len() > 1 {
            return Err(format!("unknown flag `{arg}` (see usage)"));
        } else {
            positionals.push(arg.clone());
        }
    }
    Ok((positionals, flags))
}

/// The first flag set but not in `allowed`, as a usage message.
fn stray_flag(flags: &Flags, allowed: &[&str]) -> Option<String> {
    let set = [
        ("json", flags.json),
        ("all", flags.all),
        ("addr", flags.addr.is_some()),
        ("workers", flags.workers.is_some()),
        ("queue", flags.queue.is_some()),
        ("store", flags.store.is_some()),
        ("persist", flags.persist.is_some()),
        ("profile", flags.profile.is_some()),
        ("top", flags.top.is_some()),
        ("category", flags.category.is_some()),
        ("min-speedup", flags.min_speedup.is_some()),
        ("schema", flags.schema.is_some()),
        ("repeat", flags.repeat.is_some()),
        ("mem-model", flags.mem_model.is_some()),
        ("out", flags.out.is_some()),
        ("peers", flags.peers.is_some()),
        ("advertise", flags.advertise.is_some()),
        ("join", flags.join.is_some()),
        ("faults", flags.faults.is_some()),
        ("reactors", flags.reactors.is_some()),
    ];
    set.iter()
        .find(|(name, on)| *on && !allowed.contains(name))
        .map(|(name, _)| format!("flag --{name} is not supported by this command"))
}

fn parse_variant(arg: Option<&String>) -> Result<usize, String> {
    match arg {
        None => Ok(0),
        Some(s) => s.parse().map_err(|_| format!("variant `{s}` is not a number")),
    }
}

/// Maps the advice flags onto the wire/advisor options shared by local
/// `analyze` and daemon `request`s.
fn advice_options(flags: &Flags) -> Result<WireOptions, String> {
    let mut options = WireOptions::default();
    if let Some(s) = &flags.schema {
        options.schema = match s.as_str() {
            "v1" | "1" => 1,
            "v2" | "2" => 2,
            other => return Err(format!("unknown schema `{other}` (expected v1 or v2)")),
        };
    }
    if let Some(top) = flags.top {
        options.request.top = Some(top);
    }
    if let Some(c) = &flags.category {
        let cat = OptimizerCategory::from_slug(c).ok_or_else(|| {
            format!(
                "unknown category `{c}` (expected stall-elimination, latency-hiding or parallel)"
            )
        })?;
        options.request.categories.push(cat);
    }
    if let Some(m) = flags.min_speedup {
        options.request.min_speedup = m;
    }
    if let Some(m) = &flags.mem_model {
        options.hierarchy = match m.as_str() {
            "flat" => false,
            "hierarchy" => true,
            other => {
                return Err(format!("unknown memory model `{other}` (expected flat or hierarchy)"))
            }
        };
    }
    if let Some(r) = flags.repeat {
        if r == 0 {
            return Err("flag --repeat expects a count of at least 1".to_string());
        }
        // Same bound the daemon enforces (each repeat is a full
        // re-simulation), applied before connecting anywhere.
        if r > MAX_REPEAT as usize {
            return Err(format!("flag --repeat exceeds the limit of {MAX_REPEAT}"));
        }
        options.repeat = r as u32;
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (pos, flags) = match parse_cmdline(&args) {
        Ok(parsed) => parsed,
        Err(msg) => return usage(&msg),
    };
    let Some(cmd) = pos.first().map(String::as_str) else { return usage("") };
    let allowed: &[&str] = match cmd {
        "analyze" => {
            &["json", "all", "top", "category", "min-speedup", "schema", "repeat", "mem-model"]
        }
        "profile" => &["repeat", "out", "mem-model"],
        "serve" => &[
            "addr",
            "workers",
            "queue",
            "store",
            "persist",
            "peers",
            "advertise",
            "join",
            "faults",
            "reactors",
        ],
        "request" => {
            &["addr", "profile", "top", "category", "min-speedup", "schema", "repeat", "mem-model"]
        }
        _ => &[],
    };
    if let Some(msg) = stray_flag(&flags, allowed) {
        return usage(&msg);
    }
    match cmd {
        "list" => {
            for app in all_apps() {
                let stages: Vec<&str> = app.stages.iter().map(|s| s.name).collect();
                println!(
                    "{:<24} kernel {:<28} stages: {}",
                    app.name,
                    app.kernel,
                    stages.join(", ")
                );
            }
            ExitCode::SUCCESS
        }
        "analyze" | "profile" | "asm" => {
            let options = match advice_options(&flags) {
                Ok(o) => o,
                Err(msg) => return usage(&msg),
            };
            if options.schema != 1 && !flags.json {
                return usage("flag --schema selects the --json output schema; add --json");
            }
            if flags.all {
                return analyze_all(flags.json, &options);
            }
            let Some(name) = pos.get(1) else {
                return usage(&format!("`{cmd}` needs an app name (try `gpa list`)"));
            };
            let variant = match parse_variant(pos.get(2)) {
                Ok(v) => v,
                Err(msg) => return usage(&msg),
            };
            run_local(cmd, name, variant, flags.json, &options, flags.out.as_deref())
        }
        "serve" => run_serve(&flags),
        "request" => run_request(&pos, &flags),
        _ => usage(&format!("unknown command `{cmd}`")),
    }
}

/// `analyze`/`profile`/`asm` against an in-process session.
fn run_local(
    cmd: &str,
    name: &str,
    variant: usize,
    json: bool,
    options: &WireOptions,
    out: Option<&std::path::Path>,
) -> ExitCode {
    let mut session = Session::full().with_repeat(options.repeat);
    if options.hierarchy {
        session = session.with_hierarchy();
    }
    let job = AnalysisJob::new(name, variant);
    if cmd == "asm" {
        return match session.artifacts(&job) {
            Ok(art) => {
                print!("{}", art.spec.module.write_asm());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "profile" {
        // Profiling only — no advising. With --repeat N the dump is the
        // merged multi-launch profile; the daemon's `analyze_profile`
        // op (and `request --profile`) accepts it either way.
        return match session.profile_one(&job) {
            Ok((_, profile, _)) => {
                let text = profile.to_json();
                match out {
                    None => {
                        println!("{text}");
                        ExitCode::SUCCESS
                    }
                    Some(path) => match std::fs::write(path, text + "\n") {
                        Ok(()) => ExitCode::SUCCESS,
                        Err(e) => {
                            eprintln!("gpa profile: cannot write {}: {e}", path.display());
                            ExitCode::FAILURE
                        }
                    },
                }
            }
            Err(e) => analysis_failure(false, &e),
        };
    }
    match session.run_one_request(&job, &options.request) {
        Ok(outcome) => {
            match cmd {
                _ if json && options.schema == 2 => println!("{}", outcome.to_json_v2()),
                _ if json => println!("{}", outcome.to_json()),
                _ => {
                    let top = options.request.top.unwrap_or(5);
                    print!("{}", report::render(&outcome.report, top));
                    println!("kernel cycles: {}", outcome.cycles);
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => analysis_failure(json && cmd == "analyze", &e),
    }
}

/// Reports a failed analysis: JSON on stdout under `--json`, a plain
/// message on stderr otherwise. Either way the exit code is nonzero.
fn analysis_failure(json: bool, e: &AnalysisError) -> ExitCode {
    if json {
        println!("{}", e.to_json());
    } else {
        eprintln!("analysis failed: {e}");
    }
    ExitCode::FAILURE
}

/// `gpa analyze --all [--json]`: every registry app (baseline variant)
/// through the parallel batch pipeline, then an end-of-run summary.
fn analyze_all(json: bool, options: &WireOptions) -> ExitCode {
    let mut session = Session::full().with_repeat(options.repeat);
    if options.hierarchy {
        session = session.with_hierarchy();
    }
    let jobs = session.jobs_for_all_apps();
    let t0 = std::time::Instant::now();
    let results = session.run_batch_request(&jobs, &options.request);
    let total_wall = t0.elapsed();
    let faults = results.iter().filter(|r| r.is_err()).count();

    if json {
        let apps: Vec<Json> = results
            .iter()
            .map(|r| match r {
                Ok(out) if options.schema == 2 => out.to_json_v2(),
                Ok(out) => out.to_json(),
                Err(e) => e.to_json(),
            })
            .collect();
        let doc = Json::object().with("apps", Json::Arr(apps)).with(
            "summary",
            Json::object()
                .with("analyzed", results.len())
                .with("faulted", faults)
                .with("wall_ms", total_wall.as_secs_f64() * 1e3)
                .with("workers", session.workers()),
        );
        println!("{doc}");
    } else {
        println!(
            "{:<24} {:<28} {:>12} {:>9} {:>10}  top advice",
            "application", "kernel", "cycles", "samples", "wall"
        );
        println!("{}", "-".repeat(118));
        for result in &results {
            match result {
                Ok(out) => {
                    let top = out.report.top().map_or("(no advice matched)".to_string(), |i| {
                        format!("{} {:.2}x", i.optimizer(), i.estimated_speedup)
                    });
                    println!(
                        "{:<24} {:<28} {:>10}cy {:>9} {:>8.1}ms  {}",
                        out.job.app,
                        out.kernel,
                        out.cycles,
                        out.profile.total_samples,
                        out.wall.as_secs_f64() * 1e3,
                        top
                    );
                }
                Err(e) => println!("{:<24} FAULT: {}", e.job.app, e.message),
            }
        }
        println!("{}", "-".repeat(118));
        let slowest = results.iter().flatten().max_by_key(|o| o.wall);
        println!(
            "{} apps analyzed in {:.1}ms wall ({} workers{})",
            results.len(),
            total_wall.as_secs_f64() * 1e3,
            session.workers(),
            slowest.map_or(String::new(), |o| format!(
                ", slowest: {} at {:.1}ms",
                o.job.app,
                o.wall.as_secs_f64() * 1e3
            )),
        );
        if faults > 0 {
            println!("{faults} app(s) FAULTED");
        }
    }
    if faults > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `gpa serve`: run the daemon until a client sends `shutdown`.
fn run_serve(flags: &Flags) -> ExitCode {
    let defaults = ServerConfig::default();
    let peers: Vec<String> = flags
        .peers
        .as_deref()
        .map(|list| {
            list.split(',').map(str::trim).filter(|p| !p.is_empty()).map(str::to_string).collect()
        })
        .unwrap_or_default();
    if flags.peers.is_some() && peers.is_empty() {
        return usage("flag --peers expects a comma-separated list of addresses");
    }
    let faults = match flags.faults.as_deref() {
        None => None,
        Some(spec) => match FaultPlan::parse(spec) {
            Ok(plan) => Some(plan),
            Err(msg) => return usage(&msg),
        },
    };
    if flags.reactors == Some(0) {
        return usage("flag --reactors expects a count of at least 1 (omit it for the default)");
    }
    let config = ServerConfig {
        addr: flags.addr.clone().unwrap_or(defaults.addr),
        workers: flags.workers.unwrap_or(defaults.workers),
        reactors: flags.reactors.unwrap_or(defaults.reactors),
        queue: flags.queue.unwrap_or(defaults.queue),
        store_capacity: flags.store.unwrap_or(defaults.store_capacity),
        persist_dir: flags.persist.clone(),
        peers,
        advertise: flags.advertise.clone(),
        join: flags.join.clone(),
        faults,
        ..ServerConfig::default()
    };
    let (workers, queue) = (config.workers, config.queue);
    let peer_count = config.peers.len();
    let joined = config.join.clone();
    let handle = match serve(Arc::new(Session::full()), config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("gpa serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The exact line scripts (and CI) parse to discover an ephemeral
    // port; keep the `listening on <addr>` phrasing stable.
    println!("gpa-serve listening on {} ({workers} workers, queue {queue})", handle.local_addr());
    // The *effective* count: a request above the cap (or `0` = auto)
    // reports what actually runs, matching `status.reactor.count`.
    println!("gpa-serve reactors: {} ({} accept)", handle.reactors(), handle.accept_path());
    if peer_count > 0 {
        println!("gpa-serve sharding with {peer_count} peer(s)");
    }
    if let Some(seed) = joined {
        println!("gpa-serve joined the ring via {seed}");
    }
    let _ = std::io::stdout().flush();
    handle.join();
    println!("gpa-serve stopped");
    ExitCode::SUCCESS
}

/// `gpa request <op> ...`: one request against a running daemon.
fn run_request(pos: &[String], flags: &Flags) -> ExitCode {
    let Some(op) = pos.get(1).map(String::as_str) else {
        return usage(
            "`request` needs an op: analyze, analyze_profile, status, shutdown, ring, leave",
        );
    };
    // Advice options only make sense on the advising ops; anywhere else
    // they would be silently ignored, which strict parsing forbids.
    if !matches!(op, "analyze" | "analyze_profile") {
        for (name, set) in [
            ("top", flags.top.is_some()),
            ("category", flags.category.is_some()),
            ("min-speedup", flags.min_speedup.is_some()),
            ("schema", flags.schema.is_some()),
            ("repeat", flags.repeat.is_some()),
            ("mem-model", flags.mem_model.is_some()),
        ] {
            if set {
                return usage(&format!("flag --{name} is not supported by `request {op}`"));
            }
        }
    }
    // Repeat profiling happens daemon-side during `analyze`; a submitted
    // profile is already gathered (and possibly merged) client-side.
    if op == "analyze_profile" && flags.repeat.is_some() {
        return usage("flag --repeat is not supported by `request analyze_profile`");
    }
    let options = match advice_options(flags) {
        Ok(o) => o,
        Err(msg) => return usage(&msg),
    };
    // Validate the whole command line (including the profile file)
    // BEFORE connecting, so usage errors and exit codes do not depend
    // on whether a daemon happens to be running.
    enum Prepared {
        Status,
        Shutdown,
        Ring,
        Leave { member: Option<String> },
        Analyze { app: String, variant: usize },
        AnalyzeProfile { app: String, variant: usize, profile: Json },
    }
    let prepared = match op {
        "status" => Prepared::Status,
        "shutdown" => Prepared::Shutdown,
        "ring" => Prepared::Ring,
        // `leave` alone drains the daemon at --addr; `leave ADDR` evicts
        // that member from the roster instead.
        "leave" => Prepared::Leave { member: pos.get(2).cloned() },
        "analyze" | "analyze_profile" => {
            let Some(app) = pos.get(2) else {
                return usage(&format!("`request {op}` needs an app name"));
            };
            let variant = match parse_variant(pos.get(3)) {
                Ok(v) => v,
                Err(msg) => return usage(&msg),
            };
            if op == "analyze" {
                Prepared::Analyze { app: app.clone(), variant }
            } else {
                let Some(path) = &flags.profile else {
                    return usage("`request analyze_profile` needs --profile <file>");
                };
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("gpa request: cannot read {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                };
                match Json::parse(&text) {
                    Ok(profile) => Prepared::AnalyzeProfile { app: app.clone(), variant, profile },
                    Err(e) => {
                        eprintln!("gpa request: {} is not valid JSON: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        other => return usage(&format!("unknown request op `{other}`")),
    };
    let addr = flags.addr.clone().unwrap_or_else(|| DEFAULT_ADDR.to_string());
    let mut client = match ServeClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gpa request: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sent = match prepared {
        Prepared::Status => client.status(),
        Prepared::Shutdown => client.shutdown(),
        Prepared::Ring => client.request(&Request::RingStatus),
        Prepared::Leave { member } => {
            client.request(&Request::Leave { addr: member, meta: PeerMeta::default() })
        }
        Prepared::Analyze { app, variant } => client.analyze_with(&app, variant, &options),
        Prepared::AnalyzeProfile { app, variant, profile } => {
            client.analyze_profile_with(&app, variant, &profile, &options)
        }
    };
    match sent {
        Ok(response) => {
            let ok = response.ok;
            let doc = Json::object()
                .with("ok", ok)
                .with("cached", response.cached)
                .with(
                    "result",
                    match response.result {
                        Some(r) => r,
                        None => Json::Null,
                    },
                )
                .with(
                    "error",
                    match response.error {
                        Some(e) => Json::from(e),
                        None => Json::Null,
                    },
                );
            // Tolerate a consumer that stops reading early (`| grep -q`,
            // `| head`): a broken pipe is not a request failure.
            let _ = writeln!(std::io::stdout(), "{doc}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gpa request: {e}");
            ExitCode::FAILURE
        }
    }
}
