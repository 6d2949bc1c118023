//! Table 3 as a gate: the reproduction's fidelity on the configuration
//! people run (`Session::full()`), pinned where it stands today. Ignored
//! by default because the full-scale device is slow without
//! optimization (about 1 s in release, 13 s in debug on a 2-vCPU box);
//! CI runs it in release with `--include-ignored`.

use gpa_bench::{run_app, summarize_table3};
use gpa_pipeline::Session;

#[test]
#[ignore = "full-scale device: run in release with --include-ignored"]
fn expected_optimizers_rank_in_the_top_five_and_the_error_holds() {
    let session = Session::full();
    let mut rows = Vec::new();
    for app in gpa_kernels::all_apps() {
        rows.extend(run_app(&session, &app).expect("every variant simulates").rows);
    }
    let summary = summarize_table3(&rows);
    assert_eq!(rows.len(), 26, "Table 3 has 26 optimization rows");
    let ranks: Vec<_> = rows.iter().map(|r| (&r.app, &r.optimization, r.rank)).collect();
    assert_eq!(summary.in_top5, 26, "an expected optimizer ranks below fifth: {ranks:?}");
    // 10.05 % today (the paper reports 4.0 %); ratchet down with each fix.
    assert!(summary.error <= 0.101, "geomean error {:.2} %", 100.0 * summary.error);
}
