//! Reproduces **Table 3**: achieved vs estimated speedups for every
//! optimization row, with the expected optimizer's rank in GPA's report.
//!
//! Run with `cargo run --release -p gpa-bench --bin table3`. Pass an app
//! name (e.g. `rodinia/hotspot`) to run a single application.

use gpa_bench::{print_table3_header, print_table3_row, run_apps_parallel, summarize_table3};
use gpa_kernels::all_apps;
use gpa_pipeline::Session;

fn main() {
    let filter = std::env::args().nth(1);
    let session = Session::full();
    let apps: Vec<_> = all_apps()
        .into_iter()
        .filter(|a| filter.as_deref().is_none_or(|f| a.name.contains(f)))
        .collect();
    println!(
        "GPA Table 3 reproduction — {} applications, {} SM device, {} workers\n",
        apps.len(),
        session.params().sms,
        session.workers()
    );
    print_table3_header();
    let mut rows = Vec::new();
    // Stages of one app must run in order, but apps are independent.
    for res in run_apps_parallel(&session, &apps) {
        match res {
            Ok(run) => {
                for r in &run.rows {
                    print_table3_row(r);
                }
                rows.extend(run.rows);
            }
            Err(e) => println!("ERROR: {e}"),
        }
    }
    println!("{}", "-".repeat(128));
    let summary = summarize_table3(&rows);
    println!(
        "geomean: achieved {:.2}x  estimated {:.2}x  error {:.1}%  (paper: 1.22x / 1.26x / 4.0%)",
        summary.achieved,
        summary.estimated,
        100.0 * summary.error
    );
    println!("expected optimizer in top-5 advice: {}/{} rows", summary.in_top5, rows.len());
}
