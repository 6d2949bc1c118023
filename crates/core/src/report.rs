//! ASCII advice rendering — the paper's Figure 8 format.
//!
//! ```text
//! Apply GPUStrengthReductionOptimizer optimization, ratio 5.805%, estimate speedup 1.062x
//! Long latency non-memory instructions are used. ...
//!   1. Avoid integer division. ...
//!   1. Hot BLAME code, ratio 0.444%, speedup 1.004x, distance 1
//!      From tensor_transpose at cuda2.cu:34 in Loop at cuda2.cu:30
//!      To   tensor_transpose at cuda2.cu:34 in Loop at cuda2.cu:30
//! ```
//!
//! The renderer is a thin view over the structured advice schema
//! ([`AdviceReport`] v2): guidance hints render as `*` bullets, dynamic
//! findings as `-` bullets, hotspots with their blamed def→use pair.
//! The machine-readable form of the same report lives in
//! [`crate::schema`].

use crate::advisor::{AdviceItem, AdviceReport, LocationReport};
use std::fmt::Write;

/// Renders the full report as the command-line tool prints it.
pub fn render(report: &AdviceReport, top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "GPA advice report for kernel `{}`", report.kernel);
    let _ = writeln!(
        out,
        "samples: {} total = {} active + {} latency",
        report.total_samples, report.active_samples, report.latency_samples
    );
    let _ = writeln!(out, "stall histogram:");
    for (name, count) in &report.stall_histogram {
        let pct = 100.0 * *count as f64 / report.total_samples.max(1) as f64;
        let _ = writeln!(out, "  {name:<20} {count:>10}  {pct:>5.1}%");
    }
    let _ = writeln!(out);
    if report.items.is_empty() {
        let _ = writeln!(out, "No optimization opportunities matched.");
        return out;
    }
    for item in report.items.iter().take(top) {
        render_item(&mut out, item);
        let _ = writeln!(out);
    }
    out
}

fn render_item(out: &mut String, item: &AdviceItem) {
    let _ = writeln!(
        out,
        "Apply {} optimization, ratio {:.3}%, estimate speedup {:.3}x",
        item.optimizer(),
        100.0 * item.matched_ratio,
        item.estimated_speedup
    );
    for hint in &item.hints {
        let bullet = if hint.kind.is_guidance() { '*' } else { '-' };
        let _ = writeln!(out, "  {bullet} {}", hint.text);
    }
    for (i, h) in item.hotspots.iter().enumerate() {
        let mut line = format!(
            "  {}. Hot BLAME code, ratio {:.3}%, speedup {:.3}x",
            i + 1,
            100.0 * h.ratio,
            h.speedup
        );
        if let Some(d) = h.distance {
            let _ = write!(line, ", distance {d}");
        }
        let _ = writeln!(out, "{line}");
        if let Some(def) = &h.def {
            let _ = writeln!(out, "     From {}", render_loc(def));
        }
        let _ = writeln!(out, "     To   {}", render_loc(&h.use_));
    }
}

fn render_loc(loc: &LocationReport) -> String {
    let mut s = format!("{} ", loc.function);
    match (&loc.file, loc.line) {
        (Some(f), Some(l)) => {
            let _ = write!(s, "at {f}:{l}");
        }
        _ => {
            let _ = write!(s, "at {:#x}", loc.pc);
        }
    }
    let _ = write!(s, " [{:#x}]", loc.pc);
    if !loc.scope.is_empty() && !loc.scope.starts_with("Function") {
        let _ = write!(s, " in {}", loc.scope);
    }
    s
}
