//! Shared harness code for the table/figure reproduction binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper; this library holds the Table 3 row assembly on top of the
//! pipeline's [`Session`] (which caches module artifacts and owns the
//! measure-and-advise flow the harnesses used to duplicate).

use gpa_core::{report, AdviceReport};
use gpa_kernels::App;
use gpa_pipeline::{AnalysisJob, Session};
use rayon::prelude::*;

/// One reproduced Table 3 row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Application name.
    pub app: String,
    /// Kernel name.
    pub kernel: String,
    /// Optimization applied.
    pub optimization: String,
    /// Baseline cycles ("Original" column).
    pub baseline_cycles: u64,
    /// Optimized cycles.
    pub optimized_cycles: u64,
    /// Achieved speedup.
    pub achieved: f64,
    /// GPA's estimated speedup for the expected optimizer.
    pub estimated: f64,
    /// |estimated − achieved| / achieved.
    pub error: f64,
    /// Rank of the expected optimizer in the advice report (1 = top).
    pub rank: Option<usize>,
}

/// One application's full Table 3 pass: the assembled rows plus the
/// per-stage advice reports they came from (so consumers can show top
/// advice without re-simulating).
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Table 3 rows, one per stage.
    pub rows: Vec<Table3Row>,
    /// The advice report for each stage's baseline variant.
    pub reports: Vec<AdviceReport>,
}

/// Runs all stages of one application, producing its Table 3 rows.
/// Stage `k` profiles variant `k` (sampled) and times variant `k + 1`
/// (unsampled), exactly as the paper measures achieved speedup.
///
/// # Errors
///
/// Returns a message when the simulator faults on a variant.
pub fn run_app(session: &Session, app: &App) -> Result<AppRun, String> {
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for (k, stage) in app.stages.iter().enumerate() {
        let run = session.run_one(&AnalysisJob::new(app.name, k)).map_err(|e| e.to_string())?;
        let opt_cycles =
            session.time_one(&AnalysisJob::new(app.name, k + 1)).map_err(|e| e.to_string())?;
        let achieved = run.cycles as f64 / opt_cycles as f64;
        let item = run.report.item_named(stage.optimizer);
        let estimated = item.map_or(1.0, |i| i.estimated_speedup);
        let rank = run.report.rank_of_named(stage.optimizer);
        rows.push(Table3Row {
            app: app.name.to_string(),
            kernel: app.kernel.to_string(),
            optimization: stage.name.to_string(),
            baseline_cycles: run.cycles,
            optimized_cycles: opt_cycles,
            achieved,
            estimated,
            error: (estimated - achieved).abs() / achieved,
            rank,
        });
        reports.push(run.report);
    }
    Ok(AppRun { rows, reports })
}

/// Runs [`run_app`] for many applications across the worker pool.
/// Results keep `apps` order (stages within an app stay sequential; apps
/// are independent).
pub fn run_apps_parallel(session: &Session, apps: &[App]) -> Vec<Result<AppRun, String>> {
    apps.par_iter().map(|app| run_app(session, app)).collect()
}

/// Advises on one variant of an app (for the report binaries).
///
/// # Errors
///
/// Returns a message when the simulator faults.
pub fn advise_variant(
    session: &Session,
    app: &App,
    variant: usize,
) -> Result<AdviceReport, String> {
    session
        .run_one(&AnalysisJob::new(app.name, variant))
        .map(|out| out.report)
        .map_err(|e| e.to_string())
}

/// Prints the Table 3 header.
pub fn print_table3_header() {
    println!(
        "{:<22} {:<28} {:<28} {:>12} {:>9} {:>10} {:>7} {:>5}",
        "Application",
        "Kernel",
        "Optimization",
        "Original",
        "Achieved",
        "Estimated",
        "Error",
        "Rank"
    );
    println!("{}", "-".repeat(128));
}

/// Prints one Table 3 row.
pub fn print_table3_row(r: &Table3Row) {
    println!(
        "{:<22} {:<28} {:<28} {:>10}cy {:>8.2}x {:>9.2}x {:>6.0}% {:>5}",
        r.app,
        r.kernel,
        r.optimization,
        r.baseline_cycles,
        r.achieved,
        r.estimated,
        100.0 * r.error,
        r.rank.map_or("-".to_string(), |r| r.to_string()),
    );
}

/// Geometric mean.
pub fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for x in xs {
        sum += x.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Table 3's bottom line over a set of rows.
#[derive(Debug, Clone, Copy)]
pub struct Table3Summary {
    /// Geomean achieved speedup.
    pub achieved: f64,
    /// Geomean estimated speedup.
    pub estimated: f64,
    /// Geomean estimate error, each row's clamped at 0.001 so that one
    /// exact estimate cannot zero the mean.
    pub error: f64,
    /// Rows whose expected optimizer ranks in the top 5 of the advice.
    pub in_top5: usize,
}

/// Summarizes Table 3 rows the way the paper's last line does.
pub fn summarize_table3(rows: &[Table3Row]) -> Table3Summary {
    Table3Summary {
        achieved: geomean(rows.iter().map(|r| r.achieved)),
        estimated: geomean(rows.iter().map(|r| r.estimated)),
        error: geomean(rows.iter().map(|r| r.error.max(0.001))),
        in_top5: rows.iter().filter(|r| r.rank.is_some_and(|k| k <= 5)).count(),
    }
}

/// Renders an advice report the way the CLI does.
pub fn render_report(r: &AdviceReport, top: usize) -> String {
    report::render(r, top)
}
