//! The `gpa` command-line tool.
//!
//! Mirrors the paper's workflow: GPA "is a command line tool that
//! automates profiling and analysis stages". Subcommands:
//!
//! ```text
//! gpa list                                     enumerate built-in benchmark kernels
//! gpa analyze <app> [variant] [--json]         profile a kernel and print the advice report
//! gpa analyze --all [--json]                   analyze all 21 apps in parallel, with a summary
//! gpa profile <app> [variant] [--out FILE]     dump the PC-sampling profile as JSON
//! gpa asm <app> [variant]                      print the kernel's assembly
//! gpa serve [flags]                            run the advisor daemon (see docs/protocol.md)
//! gpa request analyze <app> [variant]          analyze on a running daemon
//! gpa request analyze_profile <app> [variant] --profile F
//!                                              advise on a saved profile
//! gpa request status|shutdown|ring             daemon control, roster epoch and members
//! gpa request leave [ADDR]                     drain the daemon (or evict ADDR)
//! ```
//!
//! The command line is parsed strictly: an unknown `--flag`, a flag the
//! command does not take, a flag given twice and a surplus positional
//! are all usage errors (exit 2), never silently dropped. Every flag is
//! one row of `FLAGS`, and the advice flags' values are judged by the
//! wire's own validator, so `gpa analyze` and `gpa request analyze`
//! accept exactly the same values. Under `analyze --json`, failures are
//! reported as machine-readable JSON on stdout (still with a nonzero
//! exit code).

use gpa_core::report;
use gpa_json::Json;
use gpa_kernels::all_apps;
use gpa_pipeline::{AnalysisError, AnalysisJob, Session};
use gpa_serve::{
    serve, FaultPlan, PeerMeta, Request, ServeClient, ServerConfig, WireOptions, DEFAULT_ADDR,
};
use std::io::Write as _;
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

/// What a flag takes on the command line.
#[derive(Clone, Copy, PartialEq)]
enum Takes {
    /// Nothing: present or absent.
    Switch,
    /// An unsigned integer.
    Count,
    /// A floating-point number.
    Number,
    /// Any text; what it means is the reader's business.
    Text,
}
use Takes::{Count, Number, Switch, Text};

/// One flag. Its row is the only place the name is spelled outside
/// `USAGE` and the code that reads its value.
struct Flag {
    name: &'static str,
    takes: Takes,
    /// The commands that accept it; `request <op>` scopes it to one op
    /// of `request`, plain `request` to all of them.
    commands: &'static [&'static str],
    /// For an advice flag, the request member it is on the wire.
    member: Option<&'static str>,
}

/// Where the advisor runs, and where it is simulated for first.
const ADVISING: &[&str] = &["analyze", "request analyze", "request analyze_profile"];
const SIMULATING: &[&str] = &["analyze", "profile", "request analyze", "request analyze_profile"];
/// Repeat profiling happens during `analyze`'s simulation; a submitted
/// profile is already gathered (and possibly merged).
const REPLAYING: &[&str] = &["analyze", "profile", "request analyze"];

#[rustfmt::skip]
const FLAGS: [Flag; 20] = [
    Flag { name: "json",        takes: Switch, commands: &["analyze"],          member: None },
    Flag { name: "all",         takes: Switch, commands: &["analyze"],          member: None },
    Flag { name: "addr",        takes: Text,   commands: &["serve", "request"], member: None },
    Flag { name: "workers",     takes: Count,  commands: &["serve"],            member: None },
    Flag { name: "queue",       takes: Count,  commands: &["serve"],            member: None },
    Flag { name: "store",       takes: Count,  commands: &["serve"],            member: None },
    Flag { name: "persist",     takes: Text,   commands: &["serve"],            member: None },
    Flag { name: "profile",     takes: Text,   commands: &["request"],          member: None },
    Flag { name: "top",         takes: Count,  commands: ADVISING,              member: Some("top") },
    Flag { name: "category",    takes: Text,   commands: ADVISING,              member: Some("categories") },
    Flag { name: "min-speedup", takes: Number, commands: ADVISING,              member: Some("min_speedup") },
    Flag { name: "schema",      takes: Text,   commands: ADVISING,              member: Some("schema") },
    Flag { name: "repeat",      takes: Count,  commands: REPLAYING,             member: Some("repeat") },
    Flag { name: "mem-model",   takes: Text,   commands: SIMULATING,            member: Some("mem") },
    Flag { name: "out",         takes: Text,   commands: &["profile"],          member: None },
    Flag { name: "peers",       takes: Text,   commands: &["serve"],            member: None },
    Flag { name: "advertise",   takes: Text,   commands: &["serve"],            member: None },
    Flag { name: "join",        takes: Text,   commands: &["serve"],            member: None },
    Flag { name: "faults",      takes: Text,   commands: &["serve"],            member: None },
    Flag { name: "reactors",    takes: Count,  commands: &["serve"],            member: None },
];

/// A parsed command line: the positionals and each flag given, once,
/// with its value as the JSON it would be on the wire.
struct Args {
    pos: Vec<String>,
    given: Vec<(&'static Flag, Json)>,
}

impl Args {
    /// Splits the command line into positionals and table flags,
    /// rejecting anything that looks like a flag but is not a row, a
    /// value of the wrong kind, and a flag given twice.
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args { pos: Vec::new(), given: Vec::new() };
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            let Some(body) = arg.strip_prefix("--") else {
                if arg.starts_with('-') && arg.len() > 1 {
                    return Err(format!("unknown flag `{arg}` (see usage)"));
                }
                args.pos.push(arg.clone());
                continue;
            };
            let (name, inline) = match body.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (body, None),
            };
            let flag = FLAGS
                .iter()
                .find(|f| f.name == name)
                .ok_or_else(|| format!("unknown flag `{arg}` (see usage)"))?;
            if args.get(name).is_some() {
                return Err(format!("flag --{name} given more than once"));
            }
            let value = if flag.takes == Switch {
                if inline.is_some() {
                    return Err(format!("flag --{name} takes no value"));
                }
                Json::Bool(true)
            } else {
                let v = match inline {
                    Some(v) => v,
                    None => rest.next().ok_or_else(|| format!("flag --{name} requires a value"))?,
                };
                match flag.takes {
                    Count => v.parse::<usize>().ok().map(Json::from),
                    Number => v.parse::<f64>().ok().map(Json::from),
                    _ => Some(Json::from(v)),
                }
                .ok_or_else(|| format!("flag --{name} expects a number, got `{v}`"))?
            };
            args.given.push((flag, value));
        }
        Ok(args)
    }

    /// Refuses the first flag that `cmd` — or, for `request`, this `op`
    /// of it — does not take.
    fn check_scope(&self, cmd: &str, op: Option<&str>) -> Result<(), String> {
        let scoped = op.map(|op| format!("{cmd} {op}"));
        for (Flag { name, commands, .. }, _) in &self.given {
            if commands.iter().any(|c| *c == cmd || Some(*c) == scoped.as_deref()) {
                continue;
            }
            // Another op of this command takes it: name the one that does not.
            return Err(match &scoped {
                Some(scoped) if commands.iter().any(|c| c.starts_with(cmd)) => {
                    format!("flag --{name} is not supported by `{scoped}`")
                }
                _ => format!("flag --{name} is not supported by this command"),
            });
        }
        Ok(())
    }

    /// Refuses positionals beyond the first `max`.
    fn at_most(&self, max: usize) -> Result<(), String> {
        self.pos.get(max).map_or(Ok(()), |surplus| Err(format!("unexpected argument `{surplus}`")))
    }

    /// The value of flag `name` (a table row), if it was given.
    fn get(&self, name: &str) -> Option<&Json> {
        debug_assert!(FLAGS.iter().any(|f| f.name == name), "--{name} is not a row of FLAGS");
        self.given.iter().find(|(flag, _)| flag.name == name).map(|(_, value)| value)
    }

    fn text(&self, name: &str) -> Option<String> {
        self.get(name).map(|v| v.as_str().expect("a text flag").to_string())
    }

    fn count(&self, name: &str) -> Option<usize> {
        self.get(name).map(|v| v.as_u64().expect("a count flag") as usize)
    }

    /// The advice flags as the request members they are on the wire,
    /// judged by the wire's own validator: local `analyze` and daemon
    /// `request`s accept exactly the same values, in the same words.
    fn advice_options(&self) -> Result<WireOptions, String> {
        let mut members = Json::object();
        for (flag, value) in &self.given {
            if let Some(member) = flag.member {
                members = members.with(member, value.clone());
            }
        }
        WireOptions::parse(&members)
    }
}

fn parse_variant(arg: Option<&String>) -> Result<usize, String> {
    match arg {
        None => Ok(0),
        Some(s) => s.parse().map_err(|_| format!("variant `{s}` is not a number")),
    }
}

/// Every command's stdout goes through here. A consumer that stops
/// reading early (`| head`, `| grep -q`) is not a failure: once the pipe
/// is closed the rest of the output is dropped and the command ends
/// with the exit code it had earned.
fn emit(text: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().write_fmt(text) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("gpa: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    run(&argv).unwrap_or_else(|msg| usage(&msg))
}

/// Runs one command line; `Err` is a usage error's message.
fn run(argv: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(argv)?;
    let Some(cmd) = args.pos.first().map(String::as_str) else { return Err(String::new()) };
    let op = args.pos.get(1).map(String::as_str).filter(|_| cmd == "request");
    if cmd == "request" && op.is_none() {
        return Err(
            "`request` needs an op: analyze, analyze_profile, status, shutdown, ring, leave"
                .to_string(),
        );
    }
    args.check_scope(cmd, op)?;
    match cmd {
        "list" => {
            args.at_most(1)?;
            for app in all_apps() {
                let stages: Vec<&str> = app.stages.iter().map(|s| s.name).collect();
                out!("{:<24} kernel {:<28} stages: {}\n", app.name, app.kernel, stages.join(", "));
            }
            Ok(ExitCode::SUCCESS)
        }
        "analyze" | "profile" | "asm" => {
            let options = args.advice_options()?;
            let json = args.get("json").is_some();
            if options.schema != 1 && !json {
                return Err("flag --schema selects the --json output schema; add --json".into());
            }
            if args.get("all").is_some() {
                args.at_most(1)?;
                return Ok(analyze_all(json, &options));
            }
            args.at_most(3)?;
            let name = args
                .pos
                .get(1)
                .ok_or_else(|| format!("`{cmd}` needs an app name (try `gpa list`)"))?;
            let variant = parse_variant(args.pos.get(2))?;
            Ok(run_local(cmd, name, variant, json, &options, args.text("out").as_deref()))
        }
        "serve" => {
            args.at_most(1)?;
            run_serve(&args)
        }
        "request" => run_request(&args, op.expect("checked above")),
        _ => Err(format!("unknown command `{cmd}`")),
    }
}

/// `analyze`/`profile`/`asm` against an in-process session.
fn run_local(
    cmd: &str,
    name: &str,
    variant: usize,
    json: bool,
    options: &WireOptions,
    out: Option<&str>,
) -> ExitCode {
    let mut session = Session::full().with_repeat(options.repeat);
    if options.hierarchy {
        session = session.with_hierarchy();
    }
    let job = AnalysisJob::new(name, variant);
    if cmd == "asm" {
        return match session.artifacts(&job) {
            Ok(art) => {
                out!("{}", art.spec.module.write_asm());
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
                        out!("{text}\n");
                        ExitCode::SUCCESS
                    }
                    Some(path) => match std::fs::write(path, text + "\n") {
                        Ok(()) => ExitCode::SUCCESS,
                        Err(e) => {
                            eprintln!("gpa profile: cannot write {path}: {e}");
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
                _ if json && options.schema == 2 => out!("{}\n", outcome.to_json_v2()),
                _ if json => out!("{}\n", outcome.to_json()),
                _ => {
                    let top = options.request.top.unwrap_or(5);
                    out!("{}", report::render(&outcome.report, top));
                    out!("kernel cycles: {}\n", outcome.cycles);
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
        out!("{}\n", e.to_json());
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
        out!("{doc}\n");
    } else {
        out!(
            "{:<24} {:<28} {:>12} {:>9} {:>10}  top advice\n",
            "application",
            "kernel",
            "cycles",
            "samples",
            "wall"
        );
        out!("{}\n", "-".repeat(118));
        for result in &results {
            match result {
                Ok(out) => {
                    let top = out.report.top().map_or("(no advice matched)".to_string(), |i| {
                        format!("{} {:.2}x", i.optimizer(), i.estimated_speedup)
                    });
                    out!(
                        "{:<24} {:<28} {:>10}cy {:>9} {:>8.1}ms  {}\n",
                        out.job.app,
                        out.kernel,
                        out.cycles,
                        out.profile.total_samples,
                        out.wall.as_secs_f64() * 1e3,
                        top
                    );
                }
                Err(e) => out!("{:<24} FAULT: {}\n", e.job.app, e.message),
            }
        }
        out!("{}\n", "-".repeat(118));
        let slowest = results.iter().flatten().max_by_key(|o| o.wall);
        out!(
            "{} apps analyzed in {:.1}ms wall ({} workers{})\n",
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
            out!("{faults} app(s) FAULTED\n");
        }
    }
    if faults > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `gpa serve`: run the daemon until a client sends `shutdown`.
fn run_serve(args: &Args) -> Result<ExitCode, String> {
    let defaults = ServerConfig::default();
    let peers: Vec<String> = args
        .text("peers")
        .iter()
        .flat_map(|list| list.split(','))
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::to_string)
        .collect();
    if args.get("peers").is_some() && peers.is_empty() {
        return Err("flag --peers expects a comma-separated list of addresses".into());
    }
    let faults = args.text("faults").map(|spec| FaultPlan::parse(&spec)).transpose()?;
    if args.count("reactors") == Some(0) {
        return Err(
            "flag --reactors expects a count of at least 1 (omit it for the default)".into()
        );
    }
    let config = ServerConfig {
        addr: args.text("addr").unwrap_or(defaults.addr),
        workers: args.count("workers").unwrap_or(defaults.workers),
        reactors: args.count("reactors").unwrap_or(defaults.reactors),
        queue: args.count("queue").unwrap_or(defaults.queue),
        store_capacity: args.count("store").unwrap_or(defaults.store_capacity),
        persist_dir: args.text("persist").map(Into::into),
        peers,
        advertise: args.text("advertise"),
        join: args.text("join"),
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
            return Ok(ExitCode::FAILURE);
        }
    };
    // The exact line scripts (and CI) parse to discover an ephemeral
    // port; keep the `listening on <addr>` phrasing stable.
    out!("gpa-serve listening on {} ({workers} workers, queue {queue})\n", handle.local_addr());
    // The *effective* count: a request above the cap (or `0` = auto)
    // reports what actually runs, matching `status.reactor.count`.
    out!("gpa-serve reactors: {} ({} accept)\n", handle.reactors(), handle.accept_path());
    if peer_count > 0 {
        out!("gpa-serve sharding with {peer_count} peer(s)\n");
    }
    if let Some(seed) = joined {
        out!("gpa-serve joined the ring via {seed}\n");
    }
    let _ = std::io::stdout().flush();
    handle.join();
    out!("gpa-serve stopped\n");
    Ok(ExitCode::SUCCESS)
}

/// `gpa request <op> ...`: one request against a running daemon.
fn run_request(args: &Args, op: &str) -> Result<ExitCode, String> {
    let options = args.advice_options()?;
    // What goes on the wire. The whole command line (including the
    // profile file) is validated BEFORE connecting, so usage errors and
    // exit codes do not depend on whether a daemon happens to be running.
    enum Prepared {
        Typed(Request),
        Upload { job: AnalysisJob, profile: Json },
    }
    let (prepared, positionals) = match op {
        "status" => (Prepared::Typed(Request::Status), 2),
        "shutdown" => (Prepared::Typed(Request::Shutdown), 2),
        "ring" => (Prepared::Typed(Request::RingStatus), 2),
        // `leave` alone drains the daemon at --addr; `leave ADDR` evicts
        // that member from the roster instead.
        "leave" => {
            let addr = args.pos.get(2).cloned();
            (Prepared::Typed(Request::Leave { addr, meta: PeerMeta::default() }), 3)
        }
        "analyze" | "analyze_profile" => {
            let app = args.pos.get(2).ok_or_else(|| format!("`request {op}` needs an app name"))?;
            let job = AnalysisJob::new(app, parse_variant(args.pos.get(3))?);
            if op == "analyze" {
                (Prepared::Typed(Request::Analyze { job, options: options.clone() }), 4)
            } else {
                let path = args
                    .text("profile")
                    .ok_or("`request analyze_profile` needs --profile <file>")?;
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("gpa request: cannot read {path}: {e}");
                        return Ok(ExitCode::FAILURE);
                    }
                };
                match Json::parse(&text) {
                    Ok(profile) => (Prepared::Upload { job, profile }, 4),
                    Err(e) => {
                        eprintln!("gpa request: {path} is not valid JSON: {e}");
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
        }
        other => return Err(format!("unknown request op `{other}`")),
    };
    args.at_most(positionals)?;
    let addr = args.text("addr").unwrap_or_else(|| DEFAULT_ADDR.to_string());
    let mut client = match ServeClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gpa request: cannot connect to {addr}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let sent = match prepared {
        Prepared::Typed(request) => client.request(&request),
        Prepared::Upload { job, profile } => {
            client.analyze_profile_with(&job.app, job.variant, &profile, &options)
        }
    };
    match sent {
        Ok(response) => {
            let ok = response.ok;
            let doc = Json::object()
                .with("ok", ok)
                .with("cached", response.cached)
                .with("result", response.result.unwrap_or(Json::Null))
                .with("error", response.error.map_or(Json::Null, Json::from));
            out!("{doc}\n");
            Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        Err(e) => {
            eprintln!("gpa request: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        Args::parse(&argv).expect("parses")
    }

    /// `USAGE` stays prose; this keeps it and the table from drifting.
    #[test]
    fn usage_and_the_flag_table_name_the_same_flags() {
        for flag in &FLAGS {
            assert!(USAGE.contains(&format!("--{}", flag.name)), "--{} is not in USAGE", flag.name);
        }
        for word in USAGE.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
            if let Some(name) = word.strip_prefix("--") {
                assert!(FLAGS.iter().any(|f| f.name == name), "USAGE's --{name} is not a row");
            }
        }
    }

    /// What the CLI builds for an advice row is what the daemon reads
    /// back off the frame it is sent in: member names, value kinds and
    /// verdicts are the wire's.
    #[test]
    fn advice_rows_build_the_options_their_frame_parses_to() {
        let samples = "--top 3 --category parallel --min-speedup 1.05 --schema v2 --repeat 2 \
                       --mem-model hierarchy";
        let all = args(samples);
        assert_eq!(
            all.given.len(),
            FLAGS.iter().filter(|f| f.member.is_some()).count(),
            "one sample per advice row"
        );
        for line in
            [samples, "--top 0", "--schema 1", "--min-speedup 2", "--category latency-hiding"]
        {
            let options = args(line).advice_options().expect("valid values");
            let request =
                Request::Analyze { job: AnalysisJob::new("a", 0), options: options.clone() };
            match Request::parse(&request.to_wire()).expect("the frame parses") {
                Request::Analyze { options: parsed, .. } => assert_eq!(parsed, options, "{line}"),
                other => panic!("wrong parse: {other:?}"),
            }
        }
        let options = all.advice_options().unwrap();
        assert_eq!((options.schema, options.repeat, options.hierarchy), (2, 2, true));
        assert_eq!((options.request.top, options.request.min_speedup), (Some(3), 1.05));
        assert_eq!(options.request.categories.len(), 1);
    }
}
