//! `benchmark selfcheck`: the A/A evidence. Every workload runs twice
//! back to back on this same binary — each run a child process, as the
//! driver runs it, with another seed and for the `run_seconds` the bounds
//! were calibrated at — untraced and traced. Two runs of
//! identical code must agree within each end-to-end metric's own bound,
//! and every exact count must not differ at all.

use crate::metrics::{end_to_end, EXACT};
use crate::workload::Workload;
use crate::NOMINAL_SECONDS;
use gpa_json::Json;
use std::process::{Command, Stdio};

/// One child run's result line, parsed.
struct Run {
    failed: u64,
    metrics: Json,
}

impl Run {
    fn spawn(workload: Workload, seed: u64, trace: bool) -> Result<Run, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let output = Command::new(exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &NOMINAL_SECONDS.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().ok_or(format!("no result line ({})", output.status))?;
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        Ok(Run {
            failed: doc.field("failed").and_then(Json::as_u64).map_err(|e| e.to_string())?,
            metrics: doc.field("metrics").map_err(|e| e.to_string())?.clone(),
        })
    }

    fn value(&self, name: &str) -> Result<f64, String> {
        let metric = self.metrics.field(name).map_err(|e| e.to_string())?;
        metric.field("value").and_then(Json::as_f64).map_err(|e| e.to_string())
    }
}

/// Runs the check, prints one line per comparison, and returns whether
/// every one held.
pub fn run() -> Result<bool, String> {
    let mut breaches = 0;
    let mut verdict = |ok: bool| {
        breaches += u32::from(!ok);
        if ok {
            "ok"
        } else {
            "BREACH"
        }
    };
    for workload in Workload::ALL {
        let name = workload.name();
        for trace in [false, true] {
            let a = Run::spawn(workload, 1, trace)?;
            let b = Run::spawn(workload, 2, trace)?;
            let failed = a.failed + b.failed;
            println!(
                "{name} trace={} failed ops: {failed} {}",
                u8::from(trace),
                verdict(failed == 0)
            );
            if trace {
                for metric in EXACT {
                    let (a, b) = (a.value(metric)?, b.value(metric)?);
                    println!("{name}/{metric}: {a} vs {b} {}", verdict(a == b));
                }
            } else {
                for def in end_to_end() {
                    let (a, b) = (a.value(&def.name)?, b.value(&def.name)?);
                    let bound = def.bound.expect("end-to-end metrics are bounded");
                    // How much worse the second run reads than the first.
                    let worse = if def.better == "lower" { (b - a) / a } else { (a - b) / a };
                    println!(
                        "{name}/{}: {a} vs {b} {} -> {:+.2}% of a {:.0}% bound {}",
                        def.name,
                        def.unit,
                        100.0 * worse,
                        100.0 * bound,
                        verdict(worse.abs() <= bound)
                    );
                }
            }
        }
    }
    println!("selfcheck: {breaches} breaches");
    Ok(breaches == 0)
}
