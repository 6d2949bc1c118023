//! The repo's benchmark: one cold `analyze` as a user issues it, through
//! an in-process `gpa-serve` daemon on `Session::full()`, measured end
//! to end (`--trace 0`) and layer by layer (`--trace 1`). See
//! `README.md` for the workloads, the metric definitions and the
//! layer → end-to-end map.

mod drive;
mod layers;
mod metrics;
mod selfcheck;
mod stats;
mod sys;
mod trace;
mod workload;

use drive::Plan;
use metrics::Report;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use workload::{Fixture, Reference, Workload};

/// `run_seconds` of `BENCHMARK.json`: the bounds were calibrated at this
/// length, `selfcheck` runs at it, and the traced run's fixed op counts
/// are stated for it and scale with `--seconds`.
pub const NOMINAL_SECONDS: f64 = 30.0;

const USAGE: &str = "usage: benchmark --workload <cold_flat|cold_hier|upload_advise|warm_dial> \
                     --seed <n> --seconds <s> --trace <0|1>\n       benchmark selfcheck";

/// One run's command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    let at = args.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
    args.get(at + 1).map(String::as_str).ok_or(format!("{name} needs a value"))
}

fn parse(args: &[String]) -> Result<Args, String> {
    let workload = flag(args, "--workload")?;
    let seconds: f64 = flag(args, "--seconds")?.parse().map_err(|_| "--seconds: not a number")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(Args {
        workload: Workload::from_name(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: flag(args, "--seed")?.parse().map_err(|_| "--seed: not an unsigned integer")?,
        seconds,
        trace: match flag(args, "--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_string()),
        },
    })
}

/// The untraced run: compute the reference, set up several times, warm
/// up, then the timed section.
fn end_to_end(args: Args) -> Result<Report, String> {
    // The reference session is dropped here, before anything is measured.
    let Reference { slots, .. } = Reference::compute(args.workload)?;
    let mut set_ups = Vec::new();
    let mut fixture = None;
    for _ in 0..args.workload.set_ups() {
        // Tear the previous daemon down first: set-ups never overlap, and
        // `peak_rss_mb` covers only the last one and what is run on it.
        drop(fixture.take());
        if let Err(e) = sys::reset_peak_rss() {
            eprintln!("benchmark: peak RSS not reset ({e}); it includes the reference session");
        }
        let started = Instant::now();
        fixture = Some(Fixture::build(args.workload, &slots)?);
        set_ups.push(started.elapsed().as_secs_f64());
    }
    let fixture = fixture.expect("at least three set-ups");

    // Untimed: lets the daemon's lazy state settle and tells how many
    // ops fit `--seconds`.
    let warm_up = Plan { blocks: 1, ops_per_block: args.workload.warm_up_ops() };
    let warm = drive::run(&fixture, warm_up, args.seed ^ 0x5eed, None, None)?;
    if warm.failed > 0 {
        return Err(format!("{} of {} warm-up ops failed", warm.failed, warm.attempted()));
    }
    let op_seconds = warm.blocks[0].wall_ns as f64 / 1e9 / warm_up.ops_per_block as f64;
    let plan = Plan::fit(args.seconds, op_seconds);
    let timed = drive::run(&fixture, plan, args.seed, Some(args.seconds), None)?;
    // Before the statistics below allocate their sorted copies.
    let peak_rss_mb = sys::peak_rss_mb()?;

    let values = BTreeMap::from([
        ("op_ms_p50".to_string(), stats::op_ms_p50(&timed.lat_ns)),
        ("ops_per_s".to_string(), stats::ops_per_s(&timed.blocks)),
        ("cpu_ms_per_op".to_string(), stats::cpu_ms_per_op(&timed.blocks)),
        ("peak_rss_mb".to_string(), peak_rss_mb),
        ("setup_s".to_string(), stats::median(set_ups)),
    ]);
    Ok(Report { attempted: timed.attempted(), failed: timed.failed, values })
}

/// Where a traced run leaves its spans: beside the package, ignored by
/// git, one file per workload.
fn spans_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("trace")
        .join(format!("{}.spans.json", workload.name()))
}

fn run(args: Args) -> Result<(String, bool), String> {
    // Before the daemon starts: its threads inherit the mask.
    if let Err(e) = sys::pin_to_one_cpu() {
        eprintln!("benchmark: not pinned to one CPU ({e}); hand-offs may cross CPUs");
    }
    let (report, defs) = if args.trace {
        (
            layers::run(args.workload, args.seed, args.seconds, &spans_path(args.workload))?,
            metrics::per_layer(),
        )
    } else {
        (end_to_end(args)?, metrics::end_to_end())
    };
    Ok((report.to_line(&defs)?, report.failed == 0))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().is_some_and(|a| a == "selfcheck") {
        selfcheck::run()
    } else {
        parse(&args).map_err(|e| format!("{e}\n{USAGE}")).and_then(run).map(|(line, correct)| {
            println!("{line}");
            correct
        })
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = parse(&args("--workload cold_hier --seed 7 --seconds 25 --trace 1")).unwrap();
        let expected = Args { workload: Workload::ColdHier, seed: 7, seconds: 25.0, trace: true };
        assert_eq!(parsed, expected);
        assert!(parse(&args("--workload nope --seed 7 --seconds 25 --trace 0")).is_err());
        assert!(parse(&args("--workload cold_flat --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse(&args("--workload cold_flat --seed 7 --seconds 25 --trace 2")).is_err());
        assert!(parse(&args("--workload cold_flat --seed 7 --seconds 25")).is_err());
    }
}
